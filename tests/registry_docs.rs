//! DESIGN.md §4's registry table names every experiment of the registry,
//! in registry order, so the index cannot drift from `repro --list`.

use fleet::experiment::harness::REGISTRY;

/// The backticked ids in the first column of the table under DESIGN.md's
/// "The registry (also printed by `repro --list`)" line.
fn documented_ids(design: &str) -> Vec<&str> {
    let (_, after) = design
        .split_once("The registry (also printed by `repro --list`)")
        .expect("DESIGN.md §4 introduces the registry table");
    after
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1)?.trim().strip_prefix('`')?.strip_suffix('`'))
        .collect()
}

#[test]
fn design_registry_table_lists_the_registry_in_order() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md");
    let design = std::fs::read_to_string(&path).expect("DESIGN.md is readable");
    let registry: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(documented_ids(&design), registry);
}
