//! Cargo home for the workspace's cross-crate integration tests (sources
//! live in the top-level `tests/` directory; a virtual workspace root
//! cannot own targets), and for the README below, whose Rust blocks
//! `cargo test` compiles and runs as doctests.
#![doc = include_str!("../../../README.md")]
