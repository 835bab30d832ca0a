//! IFA is generic in the lattice: certification works identically over the
//! subset lattice (need-to-know compartments) and the full military
//! level × category lattice, not just Low/High. `mod fuzz` feeds the
//! parser and interpreter seeded random text.

use sep_flow::{certify, parse};
use sep_policy::lattice::Subset64;
use sep_policy::level::{CategorySet, Classification, SecurityLevel};
use std::collections::HashMap;

#[test]
fn certification_over_the_subset_lattice() {
    // Compartments: crypto = {0}, nuclear = {1}, both = {0,1}.
    let classes = HashMap::from([
        ("crypto".to_string(), Subset64(0b01)),
        ("nuclear".to_string(), Subset64(0b10)),
        ("both".to_string(), Subset64(0b11)),
        ("open".to_string(), Subset64(0)),
    ]);
    // Flows into `both` from either compartment are fine...
    let ok = parse(
        "var c : crypto; var n : nuclear; var b : both;
         b := c + n;",
    )
    .unwrap();
    assert!(certify(&ok, &classes).unwrap().is_empty());

    // ...but compartments are incomparable: crypto → nuclear is rejected.
    let cross = parse("var c : crypto; var n : nuclear; n := c;").unwrap();
    let violations = certify(&cross, &classes).unwrap();
    assert_eq!(violations.len(), 1);

    // And implicit flows respect compartments too.
    let implicit = parse(
        "var c : crypto; var n : nuclear;
         if c = 0 then n := 1; end",
    )
    .unwrap();
    assert_eq!(certify(&implicit, &classes).unwrap().len(), 1);

    // Open data flows anywhere.
    let open = parse(
        "var o : open; var c : crypto; var n : nuclear;
         c := o; n := o;",
    )
    .unwrap();
    assert!(certify(&open, &classes).unwrap().is_empty());
}

#[test]
fn certification_over_the_military_lattice() {
    let secret_crypto = SecurityLevel::new(Classification::Secret, CategorySet::from_indices(&[0]));
    let secret_nuclear =
        SecurityLevel::new(Classification::Secret, CategorySet::from_indices(&[1]));
    let ts_all = SecurityLevel::new(
        Classification::TopSecret,
        CategorySet::from_indices(&[0, 1]),
    );
    let classes = HashMap::from([
        ("sc".to_string(), secret_crypto),
        ("sn".to_string(), secret_nuclear),
        ("ts".to_string(), ts_all),
    ]);
    // Same-classification, different-category flows are rejected; upward
    // with category containment certified.
    let program = parse(
        "var a : sc; var b : sn; var t : ts;
         t := a + b;",
    )
    .unwrap();
    assert!(certify(&program, &classes).unwrap().is_empty());

    let cross = parse("var a : sc; var b : sn; b := a;").unwrap();
    assert_eq!(certify(&cross, &classes).unwrap().len(), 1);
}

mod fuzz {
    use sep_flow::parse;
    use sep_model::rng::{cases, Case};

    fn text(c: &mut Case, alphabet: &str, max: u64) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = c.int(0, max);
        (0..len).map(|_| chars[c.rng.below(chars.len())]).collect()
    }

    const WORDS: &str = "abcdefghijklmnopqrstuvwxyz0123456789 :;=<>()+-";

    /// The parser returns errors, never panics, on arbitrary input: half
    /// the texts carry a run of 15–25 digits, most too large for an `i64`.
    #[test]
    fn parser_never_panics() {
        cases(0x9A5, 256, |c| {
            let mut source = text(c, &format!("{WORDS}[]*/"), 80);
            if c.rng.bool() {
                let run: String = (0..c.int(15, 25))
                    .map(|_| char::from(b'0' + c.rng.below(10) as u8))
                    .collect();
                let at = c.rng.below(source.len() + 1);
                source.insert_str(at, &format!(" {run}"));
            }
            let _ = parse(&source);
        });
    }

    /// Interpreting any *parsed* program with bounded fuel never panics.
    #[test]
    fn interpreter_never_panics() {
        cases(0x1E7, 256, |c| {
            if let Ok(p) = parse(&text(c, WORDS, 60)) {
                let mut env = sep_flow::interp::initial_env(&p);
                let _ = sep_flow::run_program(&p, &mut env, 1000);
            }
        });
    }
}

#[test]
fn violation_reports_render_the_lattice_elements() {
    let classes = HashMap::from([
        ("crypto".to_string(), Subset64(0b01)),
        ("nuclear".to_string(), Subset64(0b10)),
    ]);
    let cross = parse("var c : crypto; var n : nuclear; n := c;").unwrap();
    let v = &certify(&cross, &classes).unwrap()[0];
    let text = v.to_string();
    assert!(text.contains("line 1"), "{text}");
    assert!(text.contains("Subset64"), "{text}");
}
