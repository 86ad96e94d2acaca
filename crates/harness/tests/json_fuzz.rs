//! Fuzz-style robustness tests for `harness::json`.
//!
//! The parser now reads bytes off the `dmdp serve` socket, so any input
//! — truncated, bit-flipped, spliced, or outright garbage — must come
//! back as `Ok` or a positioned `Err`, never a panic or a stack
//! overflow. The same holds for the row codec: every mutant of a real
//! campaign document also goes through `Campaign::read` and
//! `JobResult::read`. The mutations are deterministic (in-repo xoshiro
//! PRNG), so a failure reproduces exactly.

use dmdp_harness::json::obj;
use dmdp_harness::{Campaign, JobResult, Json, Parser};
use dmdp_prng::Prng;

/// A document shaped like the real wire traffic: nested objects, arrays,
/// every scalar kind, escapes and non-ASCII text.
fn seed_document() -> String {
    obj([
        ("schema", Json::Num(1.0)),
        ("campaign", Json::Str("fuzz \"quoted\" \n\t\\ λ".into())),
        ("wall_s", Json::Num(0.03125)),
        ("negative", Json::Num(-17.5)),
        ("big", Json::Num(9.007199254740991e15)),
        ("tiny", Json::Num(1.0e-9)),
        ("flag", Json::Bool(true)),
        ("off", Json::Bool(false)),
        ("nothing", Json::Null),
        (
            "jobs",
            Json::Arr(vec![
                obj([
                    ("workload", Json::Str("hmmer".into())),
                    ("digest", Json::Str("0123456789abcdef".into())),
                    ("ipc", Json::Num(2.125)),
                    ("cached", Json::Bool(false)),
                ]),
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str(String::new())]),
                Json::Obj(vec![]),
            ]),
        ),
    ])
    .pretty()
}

/// A real campaign artifact: four rows (one sampled, one under an
/// escaped label) and every optional head member.
fn campaign_document() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/campaign.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Asserts the contract: the parser returns, and failures carry the
/// standard positioned message. The campaign and row readers return
/// too, with a syntax error or a message naming a member.
fn must_not_panic(text: &str) {
    if let Err(e) = Json::parse(text) {
        assert!(e.contains("JSON parse error"), "unpositioned error for {text:?}: {e}");
    }
    let _ = Parser::document(text, Campaign::read);
    let _ = Parser::document(text, JobResult::read);
}

#[test]
fn every_truncation_of_a_valid_document_is_handled() {
    for doc in [seed_document(), campaign_document()] {
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                must_not_panic(&doc[..cut]);
            }
        }
    }
}

#[test]
fn the_campaign_document_reads() {
    let doc = campaign_document();
    assert_eq!(Parser::document(&doc, Campaign::read).unwrap().jobs.len(), 4);
    // A row cut out of it reads on its own.
    let start = doc.find("{\n      \"workload\"").unwrap();
    let end = start + doc[start..].find("\n    }").unwrap() + 6;
    assert_eq!(Parser::document(&doc[start..end], JobResult::read).unwrap().workload, "mcf");
}

#[test]
fn random_byte_mutations_are_handled() {
    for (doc, seed) in [(seed_document(), 0xf00d_2026), (campaign_document(), 0xc0de_c023)] {
        mutate(&doc, seed);
    }
}

fn mutate(doc: &str, seed: u64) {
    let mut rng = Prng::new(seed);
    for _ in 0..2_000 {
        let mut bytes = doc.as_bytes().to_vec();
        // 1–4 point mutations: overwrite, insert, or delete a byte.
        for _ in 0..1 + rng.index(4) {
            let kind = rng.index(3);
            let at = rng.index(bytes.len().max(1));
            let b = (rng.next_u32() & 0xff) as u8;
            match kind {
                0 => {
                    if at < bytes.len() {
                        bytes[at] = b;
                    }
                }
                1 => bytes.insert(at.min(bytes.len()), b),
                _ => {
                    if at < bytes.len() {
                        bytes.remove(at);
                    }
                }
            }
        }
        // Socket framing decodes UTF-8 first; non-UTF-8 mutants are
        // rejected there, before the parser ever sees them.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            must_not_panic(text);
        }
    }
}

#[test]
fn random_document_splices_are_handled() {
    for (doc, seed) in [(seed_document(), 0xbeef_cafe), (campaign_document(), 0x5b1c_e023)] {
        splice(&doc, seed);
    }
}

fn splice(doc: &str, seed: u64) {
    let mut rng = Prng::new(seed);
    for _ in 0..2_000 {
        let a = rng.index(doc.len() + 1);
        let b = rng.index(doc.len() + 1);
        let (a, b) = (a.min(b), a.max(b));
        if doc.is_char_boundary(a) && doc.is_char_boundary(b) {
            // Cut [a, b) out, or double it in place.
            let cut = format!("{}{}", &doc[..a], &doc[b..]);
            must_not_panic(&cut);
            let doubled = format!("{}{}{}", &doc[..b], &doc[a..b], &doc[b..]);
            must_not_panic(&doubled);
        }
    }
}

#[test]
fn adversarial_corpus_is_rejected_not_panicked() {
    for bad in [
        "",
        " ",
        "\u{feff}{}",
        "nul",
        "truefalse",
        "\"\\u12",
        "\"\\u123g\"",
        "\"\\",
        "-",
        "+1",
        "1e",
        "1e999",
        "0x10",
        "--5",
        "1.2.3",
        "[,]",
        "[1,]",
        "{\"a\":}",
        "{\"a\"}",
        "{:1}",
        "{1:2}",
        "[}",
        "{]",
        "\"unterminated",
        "{\"k\": \"v\"",
        "[[[[[",
        "{\"a\": {\"b\": ",
        "null null",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted garbage: {bad:?}");
        must_not_panic(bad);
    }
    // Huge flat array: legal, must parse without deep recursion.
    let flat = format!("[{}1]", "1,".repeat(50_000));
    assert!(Json::parse(&flat).is_ok());
}
