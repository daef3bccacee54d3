//! Property tests for the three text parsers that take outside input — job
//! specs (job files, wire specs, CLI operand flags), chain specs and
//! Matrix Market files: **no** input panics or aborts them, malformed input
//! always surfaces as a typed error, and the `rmat=` bounds are exactly the
//! ones the generator can build.
//!
//! Accepted specs are never loaded here: specs near the bound are valid
//! and take minutes to generate.

use blockreorg::service::job::parse_job_file;
use blockreorg::sparse::io::read_matrix_market;
use blockreorg::workloads::parse_chain_spec;
use proptest::prelude::*;

/// Numbers at the edges the parsers bound: `u32` and `u64` limits, their
/// neighbours, and spellings that are not unsigned integers.
const NUMBERS: [&str; 14] = [
    "0",
    "1",
    "2",
    "3",
    "31",
    "32",
    "4294967295",
    "4294967296",
    "4294967297",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5e3",
];

/// Tokens of all three grammars plus separators and oddities; random
/// sequences of them reach far more of each parser than random bytes.
const PIECES: [&str; 44] = [
    "dataset=",
    "input=",
    "pair=",
    "rmat=",
    "scale=",
    "seed=",
    "repeat=",
    "chain=",
    "bogus=",
    "=",
    ",",
    " ",
    "\t",
    "\n",
    "#",
    "harbor",
    "as-caida",
    "galerkin",
    "triangle",
    "square:",
    "markov:",
    "a b.mtx",
    "chain ",
    "input ",
    "step ",
    " = ",
    " * ",
    "'",
    " | ",
    "normalize",
    "prune ",
    "mask ",
    "A",
    "%%MatrixMarket matrix coordinate ",
    "real ",
    "integer ",
    "pattern ",
    "general",
    "symmetric",
    "skew-symmetric",
    "% comment\n",
    "é",
    "\u{0}",
    "nan",
];

/// Joins drawn indices into text over [`PIECES`] and [`NUMBERS`].
fn text_of(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| match i.checked_sub(PIECES.len()) {
            None => PIECES[i],
            Some(j) => NUMBERS[j % NUMBERS.len()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_text_never_panics_any_parser(
        picks in proptest::collection::vec(0usize..PIECES.len() + NUMBERS.len(), 0..40),
    ) {
        let text = text_of(&picks);
        let _ = parse_job_file(&text);
        let _ = parse_chain_spec(&text);
        let _ = read_matrix_market::<f64, _>(text.as_bytes());
    }

    #[test]
    fn arbitrary_bytes_never_panic_any_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_job_file(&text);
        let _ = parse_chain_spec(&text);
        let _ = read_matrix_market::<f64, _>(bytes.as_slice());
    }

    #[test]
    fn matrix_market_sizes_and_indices_near_the_limits_are_typed(
        field in 0usize..3,
        symmetry in 0usize..3,
        size in proptest::collection::vec(0usize..NUMBERS.len(), 3..4),
        entries in proptest::collection::vec(
            (0usize..NUMBERS.len(), 0usize..NUMBERS.len()),
            0..5,
        ),
    ) {
        let mut text = format!(
            "%%MatrixMarket matrix coordinate {} {}\n{} {} {}\n",
            ["real", "integer", "pattern"][field],
            ["general", "symmetric", "skew-symmetric"][symmetry],
            NUMBERS[size[0]],
            NUMBERS[size[1]],
            NUMBERS[size[2]],
        );
        for &(r, c) in &entries {
            let value = if field == 2 { "" } else { " 2.5" };
            text.push_str(&format!("{} {}{value}\n", NUMBERS[r], NUMBERS[c]));
        }
        // An accepted file holds every entry inside its header's shape:
        // no index wraps through the `u32` cast onto another one.
        if let Ok(coo) = read_matrix_market::<f64, _>(text.as_bytes()) {
            for (r, c, _) in coo.iter() {
                prop_assert!((r as usize) < coo.nrows() && (c as usize) < coo.ncols());
            }
            let rows: Vec<u64> = entries.iter().map(|&(r, _)| NUMBERS[r].parse().unwrap()).collect();
            prop_assert!(rows.iter().all(|&r| r >= 1 && r <= coo.nrows() as u64), "{text}");
        }
    }

    #[test]
    fn rmat_parses_exactly_within_the_generator_bounds(
        scale in 0u32..41,
        edge_factor in 0u64..4097,
        step in 0u64..3,
        at_bound in any::<bool>(),
    ) {
        // Half the draws sit beside the edge-factor bound: 2^scale - 1,
        // 2^scale or 2^scale + 1 (within 0..=2^12).
        let edge_factor = if at_bound {
            ((1u64 << scale.min(12)) + step).saturating_sub(1).min(4096)
        } else {
            edge_factor
        };
        let spec = format!("rmat={scale},{edge_factor}");
        let accepted = parse_job_file(&spec).is_ok();
        let buildable = scale <= 31 && edge_factor <= 1u64 << scale;
        prop_assert_eq!(accepted, buildable, "{}", spec);
    }
}
