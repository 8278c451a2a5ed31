//! End-to-end runs (`--trace 0`): system allocator, no spans.

fn main() {
    perfbench::main_with(None)
}
