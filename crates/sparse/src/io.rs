//! Matrix Market (`.mtx`) exchange-format I/O.
//!
//! The paper evaluates on SuiteSparse and SNAP matrices distributed in this
//! format. The reader supports the `matrix coordinate` variants actually
//! present in those collections: `real` / `integer` / `pattern` values with
//! `general` / `symmetric` / `skew-symmetric` symmetry. Pattern entries get
//! value `1`; symmetric entries are mirrored (diagonal not duplicated).

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{CooMatrix, CsrMatrix, Result};

/// Value field of the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    Pattern,
}

/// Symmetry field of the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market *coordinate* matrix from any reader.
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<CooMatrix<T>> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (line_no, header) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::ParseError {
                    line: 0,
                    message: "empty stream".to_string(),
                })
            }
        }
    };
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::ParseError {
            line: line_no,
            message: format!("not a MatrixMarket matrix header: {header:?}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::ParseError {
            line: line_no,
            message: format!("unsupported format {:?} (only coordinate)", tokens[2]),
        });
    }
    let field = match tokens[3].as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => {
            return Err(SparseError::ParseError {
                line: line_no,
                message: format!("unsupported value field {other:?}"),
            })
        }
    };
    let symmetry = match tokens[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => {
            return Err(SparseError::ParseError {
                line: line_no,
                message: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // Size line: first non-comment, non-blank line after the header.
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::ParseError {
                    line: line_no,
                    message: "missing size line".to_string(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>().map_err(|e| SparseError::ParseError {
                line: size_line_no,
                message: format!("bad size token {t:?}: {e}"),
            })
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::ParseError {
            line: size_line_no,
            message: format!("size line must have 3 fields, got {}", dims.len()),
        });
    }
    let (nrows, ncols, declared_nnz) = (dims[0], dims[1], dims[2]);
    let size_error = |message: String| SparseError::ParseError {
        line: size_line_no,
        message,
    };
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(size_error(format!(
            "dimensions {nrows}x{ncols} exceed the u32 index range"
        )));
    }
    if declared_nnz as u64 > nrows as u64 * ncols as u64 {
        return Err(size_error(format!(
            "header declares {declared_nnz} entries, more than a {nrows}x{ncols} matrix holds"
        )));
    }

    // Capacity grows with the entries actually read: the header's count is
    // untrusted, and reserving from it lets a short file claim any amount
    // of memory.
    let mut coo = CooMatrix::new(nrows, ncols);
    let mut seen = 0usize;
    for (n, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_idx = |tok: Option<&str>, n: usize| -> Result<usize> {
            let tok = tok.ok_or(SparseError::ParseError {
                line: n + 1,
                message: "missing index".to_string(),
            })?;
            tok.parse::<usize>().map_err(|e| SparseError::ParseError {
                line: n + 1,
                message: format!("bad index {tok:?}: {e}"),
            })
        };
        let r1 = parse_idx(it.next(), n)?;
        let c1 = parse_idx(it.next(), n)?;
        if r1 == 0 || c1 == 0 {
            return Err(SparseError::ParseError {
                line: n + 1,
                message: "MatrixMarket indices are 1-based; found 0".to_string(),
            });
        }
        // Checked before the `u32` cast below, which would wrap an index
        // past 2^32 onto a valid one.
        if r1 > nrows || c1 > ncols {
            return Err(SparseError::ParseError {
                line: n + 1,
                message: format!("entry ({r1}, {c1}) lies outside the {nrows}x{ncols} header"),
            });
        }
        let v = match field {
            MmField::Pattern => T::ONE,
            MmField::Real | MmField::Integer => {
                let tok = it.next().ok_or(SparseError::ParseError {
                    line: n + 1,
                    message: "missing value".to_string(),
                })?;
                let f = tok.parse::<f64>().map_err(|e| SparseError::ParseError {
                    line: n + 1,
                    message: format!("bad value {tok:?}: {e}"),
                })?;
                T::from_f64(f)
            }
        };
        let (r, c) = (r1 - 1, c1 - 1);
        coo.push(r as u32, c as u32, v)?;
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric if r != c => coo.push(c as u32, r as u32, v)?,
            MmSymmetry::SkewSymmetric if r != c => coo.push(c as u32, r as u32, -v)?,
            _ => {}
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(SparseError::ParseError {
            line: 0,
            message: format!("header declares {declared_nnz} entries, found {seen}"),
        });
    }
    Ok(coo)
}

/// Reads a Matrix Market file from disk and compresses it to CSR.
pub fn read_matrix_market_file<T: Scalar, P: AsRef<Path>>(path: P) -> Result<CsrMatrix<T>> {
    let file = File::open(path.as_ref())?;
    Ok(read_matrix_market::<T, _>(file)?.to_csr())
}

/// Writes a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar, W: Write>(m: &CsrMatrix<T>, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by blockreorg/br-sparse")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {:e}", r + 1, c + 1, v.to_f64())?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 2\n1 1 2.5\n3 2 -1.0\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes())
            .unwrap()
            .to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(2, 1), -1.0);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes())
            .unwrap()
            .to_csr();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn symmetric_mirrors_off_diagonal_only() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 2.0\n3 2 3.0\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes())
            .unwrap()
            .to_csr();
        assert_eq!(m.nnz(), 5); // diagonal once, off-diagonals mirrored
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn skew_symmetric_negates_mirror() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes())
            .unwrap()
            .to_csr();
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(0, 1), -4.0);
    }

    #[test]
    fn rejects_wrong_header() {
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix array real general\n1 1\n".as_bytes()
        )
        .is_err());
        assert!(read_matrix_market::<f64, _>("garbage\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_nnz_mismatch() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(text.as_bytes()).is_err());
    }

    /// The parse error a header or entry produces, with its line number.
    fn parse_error(text: &str) -> (usize, String) {
        match read_matrix_market::<f64, _>(text.as_bytes()) {
            Err(SparseError::ParseError { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_dimensions_beyond_u32() {
        let (line, message) =
            parse_error("%%MatrixMarket matrix coordinate real general\n4294967296 1 0\n");
        assert_eq!(line, 2);
        assert!(message.contains("4294967296x1"), "{message}");
    }

    #[test]
    fn rejects_a_count_the_dimensions_cannot_hold_before_reserving() {
        let (line, message) =
            parse_error("%%MatrixMarket matrix coordinate real general\n2 2 4294967295\n1 1 1.0\n");
        assert_eq!(line, 2);
        assert!(message.contains("4294967295 entries"), "{message}");
    }

    #[test]
    fn symmetric_count_near_the_top_of_usize_is_a_count_mismatch() {
        // Within nrows·ncols, so only the entry count catches it; doubling
        // it for the mirrored half would overflow.
        let (_, message) = parse_error(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             4294967295 4294967295 9223372036854775808\n1 1 1.0\n",
        );
        assert!(message.contains("found 1"), "{message}");
    }

    #[test]
    fn rejects_an_index_past_the_header_instead_of_wrapping_it() {
        let (line, message) =
            parse_error("%%MatrixMarket matrix coordinate real general\n3 3 1\n4294967297 1 2.5\n");
        assert_eq!(line, 3);
        assert!(message.contains("(4294967297, 1)"), "{message}");
        let (_, message) =
            parse_error("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 4\n");
        assert!(message.contains("outside the 3x3 header"), "{message}");
    }

    #[test]
    fn write_read_roundtrip() {
        let m =
            CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.5, -2.0, 0.25]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market::<f64, _>(buf.as_slice())
            .unwrap()
            .to_csr();
        assert!(m.approx_eq(&back, 1e-12));
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Random COO with possibly-duplicate coordinates (CSR compression
    /// sums them, which is exactly what the round trip must preserve).
    fn random_coo(rng: &mut SmallRng) -> CooMatrix<f64> {
        let nrows = rng.gen_range(1usize..32);
        let ncols = rng.gen_range(1usize..32);
        let entries = rng.gen_range(0usize..160);
        let mut coo = CooMatrix::with_capacity(nrows, ncols, entries);
        for _ in 0..entries {
            let r = rng.gen_range(0..nrows) as u32;
            let c = rng.gen_range(0..ncols) as u32;
            coo.push(r, c, rng.gen_range(-8.0f64..8.0)).unwrap();
        }
        coo
    }

    /// Random distinct coordinates on or below the diagonal of an n×n
    /// matrix — the storable half of a symmetric/skew-symmetric file.
    fn random_lower_triangle(rng: &mut SmallRng, strict: bool) -> (usize, BTreeSet<(u32, u32)>) {
        let n = rng.gen_range(2usize..24);
        let entries = rng.gen_range(1usize..64);
        let mut coords = BTreeSet::new();
        for _ in 0..entries {
            let r = rng.gen_range(0..n) as u32;
            let c = rng.gen_range(0..r + 1);
            if !(strict && r == c) {
                coords.insert((r, c));
            }
        }
        (n, coords)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Property: write → read is lossless for arbitrary COO matrices.
        /// The writer prints `{:e}`, which in Rust is shortest-round-trip,
        /// so equality is exact — not approximate.
        #[test]
        fn prop_write_read_roundtrip_is_exact(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = random_coo(&mut rng).to_csr();
            let mut buf = Vec::new();
            write_matrix_market(&m, &mut buf).unwrap();
            let back = read_matrix_market::<f64, _>(buf.as_slice()).unwrap().to_csr();
            proptest::prop_assert_eq!(back, m);
        }

        /// Property: a `symmetric` file expands to exactly the matrix its
        /// explicit `general` form describes, for random lower triangles.
        #[test]
        fn prop_symmetric_matches_explicit_general(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (n, coords) = random_lower_triangle(&mut rng, false);
            let mut sym = format!(
                "%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {}\n",
                coords.len()
            );
            let mut gen = CooMatrix::with_capacity(n, n, coords.len() * 2);
            for &(r, c) in &coords {
                let v = rng.gen_range(-4.0f64..4.0);
                sym.push_str(&format!("{} {} {v:e}\n", r + 1, c + 1));
                gen.push(r, c, v).unwrap();
                if r != c {
                    gen.push(c, r, v).unwrap();
                }
            }
            let m = read_matrix_market::<f64, _>(sym.as_bytes()).unwrap().to_csr();
            proptest::prop_assert_eq!(m, gen.to_csr());
        }

        /// Property: a `skew-symmetric` file mirrors with negated values;
        /// strictly-lower storage only.
        #[test]
        fn prop_skew_symmetric_negates_mirror(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (n, coords) = random_lower_triangle(&mut rng, true);
            let mut skew = format!(
                "%%MatrixMarket matrix coordinate real skew-symmetric\n{n} {n} {}\n",
                coords.len()
            );
            let mut gen = CooMatrix::with_capacity(n, n, coords.len() * 2);
            for &(r, c) in &coords {
                let v = rng.gen_range(-4.0f64..4.0);
                skew.push_str(&format!("{} {} {v:e}\n", r + 1, c + 1));
                gen.push(r, c, v).unwrap();
                gen.push(c, r, -v).unwrap();
            }
            let m = read_matrix_market::<f64, _>(skew.as_bytes()).unwrap().to_csr();
            proptest::prop_assert_eq!(m, gen.to_csr());
        }

        /// Property: a `pattern` file reads as ones at exactly the listed
        /// (distinct) coordinates.
        #[test]
        fn prop_pattern_reads_as_ones(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nrows = rng.gen_range(1usize..24);
            let ncols = rng.gen_range(1usize..24);
            let mut coords = BTreeSet::new();
            for _ in 0..rng.gen_range(0usize..80) {
                coords.insert((
                    rng.gen_range(0..nrows) as u32,
                    rng.gen_range(0..ncols) as u32,
                ));
            }
            let mut text = format!(
                "%%MatrixMarket matrix coordinate pattern general\n{nrows} {ncols} {}\n",
                coords.len()
            );
            let mut gen = CooMatrix::with_capacity(nrows, ncols, coords.len());
            for &(r, c) in &coords {
                text.push_str(&format!("{} {}\n", r + 1, c + 1));
                gen.push(r, c, 1.0f64).unwrap();
            }
            let m = read_matrix_market::<f64, _>(text.as_bytes()).unwrap().to_csr();
            proptest::prop_assert_eq!(m, gen.to_csr());
        }
    }
}
