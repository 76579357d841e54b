//! The one report model behind every `repro` subcommand.
//!
//! An experiment returns a [`Report`]: a title, a body of notes and
//! [`Table`]s, optional `BENCH_<name>.json` header fields, and any extra
//! artifact files. Each [`Col`] of a table carries both its stdout format
//! (header chunk, cell format) and its JSON key/precision, so
//! [`Report::text`] and [`Report::json`] render the same rows.

/// One typed cell of a table row (or one JSON header field value).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer count.
    U(u64),
    /// A float; the column decides the precision.
    F(f64),
    /// A string (quoted in JSON).
    S(String),
    /// A boolean (`true`/`false` in JSON, the column's words in a table).
    B(bool),
    /// Pre-rendered JSON (an object or an already-formatted number).
    Raw(String),
    /// Absent from this row: no table text, no JSON key.
    Skip,
}

impl Cell {
    /// The numeric value (`U` or `F`); 0.0 for any other cell.
    pub fn num(&self) -> f64 {
        match self {
            Cell::U(v) => *v as f64,
            Cell::F(v) => *v,
            _ => 0.0,
        }
    }

    /// The string value; empty for a non-string cell.
    pub fn text(&self) -> &str {
        match self {
            Cell::S(s) => s,
            _ => "",
        }
    }

    /// The boolean value; `false` for a non-boolean cell.
    pub fn flag(&self) -> bool {
        matches!(self, Cell::B(true))
    }

    /// The cell as a JSON value; floats at `prec` decimals.
    fn json(&self, prec: usize) -> String {
        match self {
            Cell::U(v) => v.to_string(),
            Cell::F(v) => format!("{v:.prec$}"),
            Cell::S(s) => format!("\"{s}\""),
            Cell::B(b) => b.to_string(),
            Cell::Raw(s) => s.clone(),
            Cell::Skip => String::new(),
        }
    }
}

macro_rules! cell_from {
    ($($t:ty => $v:ident $conv:expr),*) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Self { $conv }
        }
    )*};
}
cell_from!(u64 => v Cell::U(v), u32 => v Cell::U(v.into()), usize => v Cell::U(v as u64),
    f64 => v Cell::F(v), bool => v Cell::B(v), &str => v Cell::S(v.into()), String => v Cell::S(v));

/// Builds a table row from values convertible to [`Cell`].
#[macro_export]
macro_rules! row {
    ($($x:expr),* $(,)?) => { vec![$($crate::report::Cell::from($x)),*] };
}

/// One column of a [`Table`]: where and how its cells render.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    /// Header chunk, leading spaces included (columns concatenate).
    pub head: &'static str,
    /// Cell chunk: literal text around one `{:<W.P}`-style hole, in
    /// `format!` syntax (`<`/`>`, width, `.precision`, trailing `e`).
    /// Empty = the column is not in the stdout table.
    pub cell: &'static str,
    /// JSON key; empty = the column is not in the BENCH file.
    pub key: &'static str,
    /// JSON float precision.
    pub prec: usize,
    /// Wall-clock-derived: machine-dependent, masked by the golden test.
    pub wall: bool,
    /// In a nested table, part of the outer (group) object.
    pub group: bool,
    /// Table words for a boolean cell: `(true, false)`.
    pub words: (&'static str, &'static str),
}

/// A stdout-table column.
pub const fn col(head: &'static str, cell: &'static str) -> Col {
    Col {
        head,
        cell,
        key: "",
        prec: 0,
        wall: false,
        group: false,
        words: ("true", "false"),
    }
}

/// A JSON-only column.
pub const fn jcol(key: &'static str, prec: usize) -> Col {
    col("", "").key(key, prec)
}

impl Col {
    /// Also emits the column to JSON under `key`, floats at `prec` decimals.
    pub const fn key(mut self, key: &'static str, prec: usize) -> Col {
        self.key = key;
        self.prec = prec;
        self
    }

    /// Marks the column wall-clock-derived.
    pub const fn wall(mut self) -> Col {
        self.wall = true;
        self
    }

    /// Marks the column part of a nested table's group object.
    pub const fn group(mut self) -> Col {
        self.group = true;
        self
    }

    /// Table words for a boolean cell.
    pub const fn words(mut self, yes: &'static str, no: &'static str) -> Col {
        self.words = (yes, no);
        self
    }

    /// Renders `cell` into this column's table chunk.
    fn fill(&self, cell: &Cell) -> String {
        let (Some(open), Some(close)) = (self.cell.find('{'), self.cell.find('}')) else {
            return self.cell.into();
        };
        let spec = self.cell[open + 1..close].trim_start_matches(':');
        let (left, spec) = match spec.strip_prefix('<') {
            Some(rest) => (true, rest),
            None => (false, spec.trim_start_matches('>')),
        };
        let (sci, spec) = match spec.strip_suffix('e') {
            Some(rest) => (true, rest),
            None => (false, spec),
        };
        let (width, prec) = spec.split_once('.').unwrap_or((spec, ""));
        let (width, prec) = (width.parse().unwrap_or(0), prec.parse::<usize>().ok());
        let body = match (cell, prec) {
            (Cell::F(v), Some(p)) if sci => format!("{v:.p$e}"),
            (Cell::F(v), Some(p)) => format!("{v:.p$}"),
            (Cell::F(v), None) => v.to_string(),
            (Cell::U(v), _) => v.to_string(),
            (Cell::B(b), _) => (if *b { self.words.0 } else { self.words.1 }).into(),
            (Cell::S(s) | Cell::Raw(s), _) => s.clone(),
            (Cell::Skip, _) => return String::new(),
        };
        let (pre, post) = (&self.cell[..open], &self.cell[close + 1..]);
        if left {
            format!("{pre}{body:<width$}{post}")
        } else {
            format!("{pre}{body:>width$}{post}")
        }
    }
}

/// What a wall-clock cell renders as when masked.
fn masked(col: &Col, cell: &Cell, mask: bool) -> Cell {
    if mask && col.wall && *cell != Cell::Skip {
        Cell::S("~".into())
    } else {
        cell.clone()
    }
}

/// Rows under one set of columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// JSON array name; `outer/inner` nests rows that share their
    /// [`Col::group`] cells under one outer object. Empty = stdout only.
    pub key: &'static str,
    /// Column specs.
    pub cols: &'static [Col],
    /// One `Vec<Cell>` per row, positionally matching `cols`.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// The cell of `row` under JSON key `key`.
    pub fn get<'a>(&self, row: &'a [Cell], key: &str) -> &'a Cell {
        self.cols
            .iter()
            .position(|c| c.key == key)
            .and_then(|i| row.get(i))
            .unwrap_or(&Cell::Skip)
    }

    /// Numeric cell `key` of the first row whose string cells match every
    /// `(key, value)` of `filter`; 0.0 when no row matches.
    pub fn lookup(&self, filter: &[(&str, &str)], key: &str) -> f64 {
        self.rows
            .iter()
            .find(|row| filter.iter().all(|(k, v)| self.get(row, k).text() == *v))
            .map_or(0.0, |row| self.get(row, key).num())
    }

    fn text(&self, out: &mut String, mask: bool) {
        let head: String = self.cols.iter().map(|c| c.head).collect();
        if !head.is_empty() {
            out.push_str(&head);
            out.push('\n');
        }
        if self.cols.iter().all(|c| c.cell.is_empty()) {
            return;
        }
        for row in &self.rows {
            for (c, cell) in self.cols.iter().zip(row) {
                if !c.cell.is_empty() {
                    out.push_str(&c.fill(&masked(c, cell, mask)));
                }
            }
            out.push('\n');
        }
    }

    /// `"k": v, ...` over the JSON columns of `row` with `group == outer`.
    fn members(&self, row: &[Cell], outer: bool, mask: bool) -> String {
        let members: Vec<String> = self
            .cols
            .iter()
            .zip(row)
            .filter(|(c, cell)| !c.key.is_empty() && c.group == outer && **cell != Cell::Skip)
            .map(|(c, cell)| format!("\"{}\": {}", c.key, masked(c, cell, mask).json(c.prec)))
            .collect();
        members.join(", ")
    }

    fn json(&self, mask: bool) -> String {
        let (name, inner) = self.key.split_once('/').unwrap_or((self.key, ""));
        let mut entries: Vec<String> = Vec::new();
        let mut open_group = String::new();
        for row in &self.rows {
            if inner.is_empty() {
                entries.push(format!("    {{{}}}", self.members(row, false, mask)));
                continue;
            }
            let group = self.members(row, true, mask);
            let point = format!("        {{{}}}", self.members(row, false, mask));
            match entries.last_mut() {
                Some(last) if group == open_group => {
                    last.push_str(",\n");
                    last.push_str(&point);
                }
                _ => entries.push(format!("    {{{group}, \"{inner}\": [\n{point}")),
            }
            open_group = group;
        }
        if !inner.is_empty() {
            entries.iter_mut().for_each(|e| e.push_str("\n      ]}"));
        }
        format!("  \"{name}\": [\n{}\n  ]", entries.join(",\n"))
    }
}

/// One element of a report body, in print order.
#[derive(Debug, Clone)]
pub enum Block {
    /// A free-text line (or pre-formatted lines), without its trailing
    /// newline.
    Note(String),
    /// A table.
    Table(Table),
}

/// What one experiment produced: everything `repro` prints and writes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Printed as `== title ==`.
    pub title: String,
    /// Notes and tables, in print order.
    pub body: Vec<Block>,
    /// `BENCH_<name>.json` header fields, after `generated_by`.
    pub fields: Vec<(&'static str, Cell)>,
    /// Extra artifact files: `(file name, contents)`.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// An empty report under `title`.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            ..Self::default()
        }
    }

    /// Appends a free-text line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.body.push(Block::Note(text.into()));
    }

    /// Appends a table; `key` names its JSON array (empty = stdout only).
    ///
    /// # Panics
    ///
    /// If the report already holds a table under the non-empty `key`:
    /// [`Self::get`] finds the first, so a second would be unreachable.
    pub fn table(&mut self, key: &'static str, cols: &'static [Col], rows: Vec<Vec<Cell>>) {
        assert!(
            key.is_empty() || self.get(key).is_none(),
            "report {:?} already has a table {key:?}",
            self.title
        );
        self.body.push(Block::Table(Table { key, cols, rows }));
    }

    /// Appends a `BENCH_<name>.json` header field.
    pub fn field(&mut self, key: &'static str, value: impl Into<Cell>) {
        self.fields.push((key, value.into()));
    }

    /// The table whose JSON array is `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Table> {
        self.body.iter().find_map(|b| match b {
            Block::Table(t) if t.key == key => Some(t),
            _ => None,
        })
    }

    /// [`Table::lookup`] on the table whose JSON array is `table`; 0.0
    /// when there is no such table.
    pub fn lookup(&self, table: &str, filter: &[(&str, &str)], key: &str) -> f64 {
        self.get(table).map_or(0.0, |t| t.lookup(filter, key))
    }

    /// The stdout rendering. `mask` replaces wall-clock cells with `~`,
    /// leaving only deterministic text.
    pub fn text(&self, mask: bool) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for block in &self.body {
            match block {
                Block::Note(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
                Block::Table(t) => t.text(&mut out, mask),
            }
        }
        out.push('\n');
        out
    }

    /// The `BENCH_<name>.json` rendering (`mask` as in [`Self::text`]).
    pub fn json(&self, name: &str, mask: bool) -> String {
        let mut parts = vec![format!("  \"generated_by\": \"repro {name}\"")];
        for (key, value) in &self.fields {
            parts.push(format!("  \"{key}\": {}", value.json(0)));
        }
        for block in &self.body {
            match block {
                Block::Table(t) if !t.key.is_empty() => parts.push(t.json(mask)),
                _ => {}
            }
        }
        format!("{{\n{}\n}}\n", parts.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLS: &[Col] = &[col("  n", "  {}").key("n", 0)];

    #[test]
    #[should_panic(expected = "already has a table \"points\"")]
    fn a_second_table_under_one_key_panics() {
        let mut r = Report::new("t");
        r.table("points", COLS, vec![crate::row![1u64]]);
        r.table("points", COLS, vec![crate::row![2u64]]);
    }

    #[test]
    fn stdout_only_tables_may_share_the_empty_key() {
        let mut r = Report::new("t");
        r.table("", COLS, vec![crate::row![1u64]]);
        r.table("", COLS, vec![crate::row![2u64]]);
        r.table("points", COLS, vec![crate::row![3u64]]);
        assert_eq!(r.lookup("points", &[], "n"), 3.0);
        assert_eq!(r.text(false), "== t ==\n  n\n  1\n  n\n  2\n  n\n  3\n\n");
    }
}
