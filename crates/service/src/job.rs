//! Job specs, failures, and the `blockreorg-cli batch` job-file format.
//!
//! What the service executes is a [`ChainRequest`]: a program over shared
//! `Arc` operands (so a batch of repeats holds one copy of the data); the
//! plan settings belong to the service. A [`JobSpec`] is the *declarative*
//! form read from a job file — a matrix source plus a repeat count — which
//! [`JobSpec::request`] realizes into one request and
//! [`expand_submissions`] into its repeats.
//!
//! Job-file format: one job per line, `key=value` tokens separated by
//! whitespace, `#` starts a comment. Exactly one source key per line:
//!
//! ```text
//! # 8 repeated squarings of the as-caida surrogate (dim ÷ 16)
//! dataset=as-caida scale=16 repeat=8
//! rmat=12,8 seed=42 repeat=4
//! input=path/to/matrix.mtx pair=path/to/other.mtx
//! # a chained workload over the source matrix (square:k, triangle,
//! # markov:iters,tol, galerkin)
//! chain=galerkin dataset=as-caida scale=16
//! ```
//!
//! A `chain=` line turns the source into the *base matrix* of a canonical
//! [`br_workloads::Workload`]; [`expand_submissions`] realizes such lines
//! into chain requests and plain lines into one-step multiplications
//! ([`ChainRequest::multiply`]), on one id namespace in file order. [`JobKeys`] reads the keys
//! one at a time: job files, wire specs and the CLI's operand flags all go
//! through it, so every spelling of a spec is held to the same bounds.

use std::sync::Arc;

use br_datasets::registry::{DatasetSpec, RealWorldRegistry, ScaleFactor};
use br_datasets::rmat::{try_rmat, RmatConfig};
use br_sparse::io::read_matrix_market_file;
use br_sparse::CsrMatrix;
use br_workloads::Workload;

use crate::chain::ChainRequest;
use crate::operands::OperandCache;

/// A failed (or refused) request.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Identifier from the request.
    pub id: u64,
    /// Label from the request.
    pub label: String,
    /// What went wrong.
    pub message: String,
}

/// Where a job-file line gets its matrix from. A parsed source is
/// canonical: two spellings of one matrix compare (and hash) equal, so it
/// keys the [`OperandCache`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MatrixSource {
    /// A Table II registry surrogate at `dim ÷ scale`.
    Dataset {
        /// Registry name (`--list` shows all).
        name: String,
        /// Dimension divisor.
        scale: usize,
    },
    /// A generated RMAT graph.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex.
        edge_factor: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A Matrix Market file on disk.
    File(String),
}

impl MatrixSource {
    /// Short display label for reports.
    pub fn label(&self) -> String {
        match self {
            MatrixSource::Dataset { name, .. } => name.clone(),
            MatrixSource::Rmat {
                scale, edge_factor, ..
            } => format!("rmat-{scale}-{edge_factor}"),
            MatrixSource::File(path) => {
                path.rsplit('/').next().unwrap_or(path.as_str()).to_string()
            }
        }
    }

    /// Realizes the matrix, with errors that name the valid choices. An
    /// `rmat=` spec too dense to draw within the generator's candidate
    /// budget fails ([`try_rmat`]).
    pub fn load(&self) -> Result<CsrMatrix<f64>, String> {
        match self {
            MatrixSource::Dataset { name, scale } => {
                Ok(registry_spec(name)?.generate(ScaleFactor::Div(*scale)))
            }
            MatrixSource::Rmat {
                scale,
                edge_factor,
                seed,
            } => try_rmat(RmatConfig::graph500(*scale, *edge_factor, *seed))
                .map(|coo| coo.to_csr())
                .map_err(|e| format!("cannot generate rmat={scale},{edge_factor}: {e}")),
            MatrixSource::File(path) => read_matrix_market_file::<f64, _>(path)
                .map_err(|e| format!("cannot read {path}: {e}")),
        }
    }
}

/// The registry surrogate `name` names, or an error listing the valid names.
fn registry_spec(name: &str) -> Result<DatasetSpec, String> {
    RealWorldRegistry::get(name).ok_or_else(|| {
        let valid: Vec<&str> = RealWorldRegistry::all().iter().map(|s| s.name).collect();
        format!(
            "unknown dataset {name:?}; valid datasets: {}",
            valid.join(", ")
        )
    })
}

/// One parsed job-file line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Left operand source (for chains: the base matrix).
    pub source: MatrixSource,
    /// Right operand source (`None` ⇒ squaring, `B = A`).
    pub pair: Option<MatrixSource>,
    /// How many times to submit the multiplication (or chain).
    pub repeat: u32,
    /// Canonical workload to run over the source instead of a single
    /// multiplication (`chain=` key; incompatible with `pair=`).
    pub chain: Option<Workload>,
}

impl JobSpec {
    /// Loads the operands into request `id`: a one-step multiplication
    /// labelled with the source's label, or, under `chain=`, the workload
    /// over the source labelled `<label>:<workload spec>`. One request
    /// regardless of `repeat`. A server passes its [`OperandCache`], so a
    /// repeated spec is loaded twice and then shared; without one, every
    /// call loads.
    pub fn request(
        &self,
        id: u64,
        operands: Option<&OperandCache>,
    ) -> Result<ChainRequest, String> {
        let load = |source: &MatrixSource| match operands {
            Some(cache) => cache.load(source),
            None => source.load().map(Arc::new),
        };
        let a = load(&self.source)?;
        Ok(match self.chain {
            Some(workload) => {
                let label = format!("{}:{}", self.source.label(), workload.spec());
                ChainRequest::workload(id, workload, &a).with_label(label)
            }
            None => {
                let b = match &self.pair {
                    Some(src) => load(src)?,
                    None => a.clone(),
                };
                ChainRequest::multiply(id, a, b).with_label(self.source.label())
            }
        })
    }
}

/// Largest `rmat=` scale: a `2^31` dimension is the last that fits `u32`
/// indices.
const MAX_RMAT_SCALE: u32 = 31;

/// Parses a job file; errors carry the 1-based line number.
pub fn parse_job_file(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut specs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        specs.push(parse_job_line(line).map_err(|e| format!("job file line {}: {e}", lineno + 1))?);
    }
    if specs.is_empty() {
        return Err("job file contains no jobs".to_string());
    }
    Ok(specs)
}

fn parse_job_line(line: &str) -> Result<JobSpec, String> {
    let mut keys = JobKeys::default();
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
        keys.set(key, value)
            .map_err(|e| format!("bad {key} {value:?}: {e}"))?;
    }
    keys.finish()
}

/// One job spec read a `key=value` at a time: the per-key parser behind
/// job files, wire specs and the CLI's operand flags. A later value of a
/// key replaces an earlier one.
#[derive(Debug, Clone, Default)]
pub struct JobKeys {
    dataset: Option<String>,
    input: Option<String>,
    rmat: Option<(u32, usize)>,
    pair: Option<String>,
    scale: Option<usize>,
    seed: Option<u64>,
    repeat: Option<u32>,
    chain: Option<Workload>,
}

impl JobKeys {
    /// Reads `key=value`. The error says what is wrong with the value but
    /// not which key it was, so a job file and a command line can each name
    /// the key their own way.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "dataset" => self.dataset = Some(value.to_string()),
            "input" => self.input = Some(value.to_string()),
            "pair" => self.pair = Some(value.to_string()),
            "rmat" => self.rmat = Some(parse_rmat(value)?),
            "scale" => {
                let scale = value.parse().ok().filter(|&s| s > 0);
                self.scale = Some(scale.ok_or("must be a positive integer")?);
            }
            "seed" => self.seed = Some(value.parse().map_err(|_| "must be an integer")?),
            "repeat" => {
                let repeat = value.parse().ok().filter(|&r| r > 0);
                self.repeat = Some(repeat.ok_or("must be a positive integer")?);
            }
            "chain" => self.chain = Some(Workload::parse(value)?),
            _ => {
                return Err(
                    "unknown key (valid: dataset, input, pair, rmat, scale, seed, repeat, chain)"
                        .to_string(),
                )
            }
        }
        Ok(())
    }

    /// The spec the keys describe, `scale=16 seed=42 repeat=1` unless
    /// given: exactly one source, a dataset the registry knows, and no
    /// `pair=` under `chain=`.
    pub fn finish(self) -> Result<JobSpec, String> {
        let source = match (self.dataset, self.input, self.rmat) {
            (Some(name), None, None) => {
                registry_spec(&name)?;
                MatrixSource::Dataset {
                    name,
                    scale: self.scale.unwrap_or(16),
                }
            }
            (None, Some(path), None) => MatrixSource::File(path),
            (None, None, Some((scale, edge_factor))) => MatrixSource::Rmat {
                scale,
                edge_factor,
                seed: self.seed.unwrap_or(42),
            },
            _ => return Err("give exactly one source: dataset, input or rmat".to_string()),
        };
        if self.chain.is_some() && self.pair.is_some() {
            return Err(
                "chain= uses the source as its base matrix; pair= is incompatible".to_string(),
            );
        }
        Ok(JobSpec {
            source,
            pair: self.pair.map(MatrixSource::File),
            repeat: self.repeat.unwrap_or(1),
            chain: self.chain,
        })
    }
}

/// `<scale>,<edge-factor>`, bounded so the generator can build it: the
/// dimension `2^scale` must fit the `u32` indices, and the
/// `2^scale · edge-factor` edges must fit the `dim²` grid.
fn parse_rmat(value: &str) -> Result<(u32, usize), String> {
    let (s, ef) = value.split_once(',').ok_or("expects <scale,edge-factor>")?;
    let s: u32 = s
        .parse()
        .map_err(|_| format!("scale {s:?} is not an integer"))?;
    let ef: usize = ef
        .parse()
        .map_err(|_| format!("edge factor {ef:?} is not an integer"))?;
    if s > MAX_RMAT_SCALE {
        return Err(format!("scale {s} exceeds {MAX_RMAT_SCALE}"));
    }
    if ef as u64 > 1u64 << s {
        return Err(format!("edge factor {ef} exceeds 2^scale = {}", 1u64 << s));
    }
    Ok((s, ef))
}

/// Realizes specs into requests, in file order on one id namespace.
/// Repeats of one spec share the same `Arc`'d operands (a chain's, its
/// program and prepared inputs), so the service sees structurally identical
/// submissions — the plan-cache amortization case.
pub fn expand_submissions(specs: &[JobSpec]) -> Result<Vec<ChainRequest>, String> {
    let mut out = Vec::new();
    for spec in specs {
        let template = spec.request(0, None)?;
        for k in 0..spec.repeat {
            out.push(ChainRequest {
                id: out.len() as u64,
                label: format!("{}[{}/{}]", template.label, k + 1, spec.repeat),
                ..template.clone()
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_dataset_rmat_and_comments() {
        let text = "\n# comment\ndataset=as-caida scale=8 repeat=3  # trailing\nrmat=7,6 seed=9\n";
        let specs = parse_job_file(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(
            specs[0],
            JobSpec {
                source: MatrixSource::Dataset {
                    name: "as-caida".into(),
                    scale: 8
                },
                pair: None,
                repeat: 3,
                chain: None,
            }
        );
        assert_eq!(
            specs[1].source,
            MatrixSource::Rmat {
                scale: 7,
                edge_factor: 6,
                seed: 9
            }
        );
        assert_eq!(specs[1].repeat, 1);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        assert!(parse_job_file("").is_err());
        let err = parse_job_file("dataset=a rmat=7,6").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_job_file("# fine\nbogus=1").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(parse_job_file("repeat=2").is_err(), "source is mandatory");
        assert!(parse_job_file("dataset=x repeat=0").is_err());
        let err = parse_job_file("dataset=x scale=0").unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn rmat_bounds_reject_specs_the_generator_cannot_build() {
        for (spec, bound) in [
            ("rmat=1,8", "exceeds 2^scale = 2"),
            ("rmat=32,1", "exceeds 31"),
            ("rmat=63,1", "exceeds 31"),
            ("rmat=64,1", "exceeds 31"),
        ] {
            let err = parse_job_file(spec).unwrap_err();
            assert!(err.contains(bound), "{spec}: {err}");
        }
        for spec in ["rmat=0,1", "rmat=2,4", "rmat=6,4"] {
            assert!(parse_job_file(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn keys_read_one_at_a_time_keep_a_path_with_spaces() {
        let mut keys = JobKeys::default();
        keys.set("input", "my matrices/a b.mtx").unwrap();
        keys.set("pair", "other dir/b.mtx").unwrap();
        let spec = keys.finish().unwrap();
        assert_eq!(
            spec.source,
            MatrixSource::File("my matrices/a b.mtx".into())
        );
        assert_eq!(
            spec.pair,
            Some(MatrixSource::File("other dir/b.mtx".into()))
        );
        // The error leaves naming the key to the caller.
        let err = JobKeys::default().set("scale", "0").unwrap_err();
        assert_eq!(err, "must be a positive integer");
        let mut keys = JobKeys::default();
        keys.set("dataset", "nope").unwrap();
        let err = keys.finish().unwrap_err();
        assert!(err.contains("as-caida"), "must list valid names: {err}");
    }

    #[test]
    fn unknown_dataset_error_lists_valid_choices() {
        let err = MatrixSource::Dataset {
            name: "nope".into(),
            scale: 16,
        }
        .load()
        .unwrap_err();
        assert!(err.contains("unknown dataset"), "{err}");
        assert!(err.contains("as-caida"), "must list valid names: {err}");
    }

    #[test]
    fn parses_chain_lines_and_rejects_bad_ones() {
        let specs =
            parse_job_file("chain=galerkin rmat=6,4 repeat=2\nchain=square:4 rmat=6,4\n").unwrap();
        assert_eq!(specs[0].chain, Some(Workload::Galerkin));
        assert_eq!(specs[0].repeat, 2);
        assert_eq!(specs[1].chain, Some(Workload::Square { k: 4 }));
        let err = parse_job_file("chain=frobnicate rmat=6,4").unwrap_err();
        assert!(err.contains("bad chain"), "{err}");
        let err = parse_job_file("chain=triangle rmat=6,4 pair=x.mtx").unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
    }

    #[test]
    fn expand_submissions_keeps_jobs_and_chains_on_one_id_namespace() {
        use crate::chain::RequestKind;
        let specs =
            parse_job_file("rmat=6,4 repeat=2\nchain=triangle rmat=6,4 seed=5 repeat=2\n").unwrap();
        let requests = expand_submissions(&specs).unwrap();
        let kinds: Vec<RequestKind> = requests.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [
                RequestKind::Job,
                RequestKind::Job,
                RequestKind::Chain,
                RequestKind::Chain
            ]
        );
        assert_eq!(requests[1].id, 1);
        assert_eq!(requests[2].id, 2);
        assert_eq!(requests[3].id, 3);
        assert!(
            requests[2].label.contains("triangle"),
            "{}",
            requests[2].label
        );
        // Chain repeats share the prepared inputs.
        assert!(Arc::ptr_eq(&requests[2].inputs[0], &requests[3].inputs[0]));
        // A chain line ahead of a job line stays ahead.
        let specs = parse_job_file("chain=triangle rmat=6,4\nrmat=6,4\n").unwrap();
        let requests = expand_submissions(&specs).unwrap();
        assert!(matches!(
            &requests[..],
            [c, j] if c.kind == RequestKind::Chain && c.id == 0
                && j.kind == RequestKind::Job && j.id == 1
        ));
    }

    #[test]
    fn expand_shares_operands_across_repeats() {
        let specs = parse_job_file("rmat=6,4 repeat=3").unwrap();
        let jobs = expand_submissions(&specs).unwrap();
        assert_eq!(jobs.len(), 3);
        assert!(Arc::ptr_eq(&jobs[0].inputs[0], &jobs[1].inputs[0]));
        assert!(Arc::ptr_eq(&jobs[1].inputs[0], &jobs[2].inputs[0]));
        assert!(
            Arc::ptr_eq(&jobs[0].inputs[0], &jobs[0].inputs[1]),
            "square by default"
        );
        assert_eq!(jobs[2].label, "rmat-6-4[3/3]");
        assert_eq!(jobs[2].id, 2);
    }
}
