//! Cargo applies `[workspace.lints]` (`missing_docs`, the `unsafe_code` ban
//! and the `#[expect]`-only waiver rule) only to packages whose manifest says
//! `[lints] workspace = true`, and neither rustc nor clippy notices a member
//! that forgets; this test does.

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |dir: &str| std::fs::read_to_string(format!("{root}/{dir}/Cargo.toml")).unwrap();
    let workspace = read(".");
    let (_, members) = workspace.split_once("\nmembers = [").unwrap();
    let members = members.split_once(']').unwrap().0.split(',');
    let dirs: Vec<&str> = members.map(|m| m.trim().trim_matches('"')).collect();
    assert!(dirs.len() > 10, "parsed {dirs:?}");
    for dir in dirs.into_iter().filter(|d| !d.is_empty()).chain(["."]) {
        assert!(
            read(dir).contains("\n[lints]\nworkspace = true\n"),
            "{dir}/Cargo.toml lacks `[lints] workspace = true`"
        );
    }
}
