//! README's counter glossary is generated from `keys::KEYS`: this test
//! renders the table and fails when README.md holds a different one.
//! `GTS_BLESS=1` rewrites the table in place.

use gts_telemetry::keys::{Class, KEYS};

const BEGIN: &str = "<!-- keys:begin (generated from gts_telemetry::keys::KEYS) -->\n";
const END: &str = "<!-- keys:end -->";

fn table() -> String {
    let mut out = String::from("| Key | Unit | Class | Meaning |\n|---|---|---|---|\n");
    for k in KEYS {
        let class = match k.class {
            Class::Contract => "contract",
            Class::Diagnostic => "diagnostic",
        };
        let doc = k.doc.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| `{}` | {} | {class} | {doc} |\n",
            k.pattern, k.unit
        ));
    }
    out
}

#[test]
fn readme_counter_glossary_is_generated_from_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).unwrap();
    let (head, rest) = readme
        .split_once(BEGIN)
        .expect("README lacks the keys:begin marker");
    let (current, tail) = rest
        .split_once(END)
        .expect("README lacks the keys:end marker");
    let want = table();
    if std::env::var_os("GTS_BLESS").is_some() {
        std::fs::write(path, format!("{head}{BEGIN}{want}{END}{tail}")).unwrap();
    } else {
        assert!(
            current == want,
            "README's counter glossary is stale: rerun with GTS_BLESS=1"
        );
    }
}
