//! The untraced run: end-to-end metrics over the wire (see the library
//! docs).

fn main() {
    hostbench::bench::main_with(None)
}
