//! The timed binary: system allocator, untouched.

fn main() {
    std::process::exit(ssdbench::main());
}
