//! The traced binary: the same program behind the counting allocator.

#[global_allocator]
static ALLOCATOR: ssdbench::alloc::Counting = ssdbench::alloc::Counting;

fn main() {
    std::process::exit(ssdbench::main());
}
