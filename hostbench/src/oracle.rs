//! Output checks, run after the timed phase so they never enter a timed
//! number.
//!
//! The expected `nnz` of every request comes from the sequential Gustavson
//! oracle (`br_sparse::ops::spgemm_gustavson`) or, for chains, from
//! `ChainProgram::execute_reference` — never from the code under test.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use br_service::job::{parse_job_file, JobSpec};
use br_sparse::ops::spgemm_gustavson;
use br_sparse::CsrMatrix;

use crate::wire::{Outcome, Record};
use crate::workload::{Kind, Request, Workload};

/// Parses a request's one-line spec.
pub fn parse(spec: &str) -> Result<JobSpec, String> {
    let mut specs = parse_job_file(spec)?;
    match (specs.pop(), specs.is_empty()) {
        (Some(one), true) => Ok(one),
        _ => Err(format!("{spec:?} is not exactly one job line")),
    }
}

/// Left and right operand of one multiplication.
pub type Operands = (Arc<CsrMatrix<f64>>, Arc<CsrMatrix<f64>>);

/// The operands a single-multiplication spec names.
pub fn operands(job: &JobSpec) -> Result<Operands, String> {
    let a = Arc::new(job.source.load()?);
    let b = match &job.pair {
        Some(src) => Arc::new(src.load()?),
        None => a.clone(),
    };
    Ok((a, b))
}

/// The oracle's `nnz` for one request.
pub fn expected_nnz(req: &Request) -> Result<u64, String> {
    let job = parse(&req.spec)?;
    match (req.kind, job.chain) {
        (Kind::Single, None) => {
            let (a, b) = operands(&job)?;
            let c = spgemm_gustavson(&a, &b).map_err(|e| e.to_string())?;
            Ok(c.nnz() as u64)
        }
        (Kind::Chain, Some(workload)) => {
            let base = job.source.load()?;
            let inputs = workload.prepare_inputs(&base);
            let run = workload
                .program()
                .execute_reference(&inputs)
                .map_err(|e| e.to_string())?;
            Ok(run.result.nnz() as u64)
        }
        _ => Err(format!("{:?} does not match its frame type", req.spec)),
    }
}

/// Oracle `nnz` for every distinct spec among `records`, on two threads
/// (the server has exited by now, so they do not compete with it).
pub fn expected_for(records: &[Record]) -> Result<HashMap<String, u64>, String> {
    let mut unique: Vec<&Request> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for r in records {
        if seen.insert(r.request.spec.as_str()) {
            unique.push(&r.request);
        }
    }
    let half = unique.len().div_ceil(2);
    let results: Vec<Result<Vec<(String, u64)>, String>> = thread::scope(|s| {
        let handles: Vec<_> = unique
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|req| expected_nnz(req).map(|n| (req.spec.clone(), n)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut map = HashMap::new();
    for part in results {
        map.extend(part?);
    }
    Ok(map)
}

/// Why a timed request counts as failed, if it does.
pub fn verdict(record: &Record, expected: &HashMap<String, u64>, w: &Workload) -> Option<String> {
    match &record.outcome {
        Outcome::Refused(why) | Outcome::Lost(why) => Some(why.clone()),
        Outcome::Done(reply) => {
            let want = expected.get(&record.request.spec);
            if want != Some(&reply.nnz) {
                Some(format!("nnz {} but the oracle gives {want:?}", reply.nnz))
            } else if reply.hits != w.expected_hits {
                Some(format!(
                    "cache hits {:?}, expected {:?}",
                    reply.hits, w.expected_hits
                ))
            } else {
                None
            }
        }
    }
}

/// The verdict on every record, in order: `None` when the request
/// succeeded with the right output.
pub fn judge(
    records: &[Record],
    expected: &HashMap<String, u64>,
    w: &Workload,
) -> Vec<Option<String>> {
    records.iter().map(|r| verdict(r, expected, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Reply;
    use crate::workload::by_name;

    fn done(w: &Workload, i: u64, nnz: u64) -> Record {
        Record {
            request: w.timed(5, i),
            latency_ms: Some(1.0),
            outcome: Outcome::Done(Reply {
                hits: w.expected_hits.to_vec(),
                sim_ms: 1.0,
                nnz,
            }),
        }
    }

    #[test]
    fn oracle_matches_a_direct_gustavson_product() {
        let w = by_name("cold_unique").unwrap();
        let req = w.timed(5, 0);
        let a = br_service::job::MatrixSource::Rmat {
            scale: 9,
            edge_factor: 8,
            seed: 6,
        }
        .load()
        .unwrap();
        let want = spgemm_gustavson(&a, &a).unwrap().nnz() as u64;
        assert_eq!(expected_nnz(&req).unwrap(), want);
    }

    #[test]
    fn a_wrong_expected_nnz_counts_as_a_failure() {
        let w = by_name("cold_unique").unwrap();
        let records: Vec<Record> = (0..3).map(|i| done(&w, i, 100 + i)).collect();
        let mut expected: HashMap<String, u64> = records
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Done(reply) => (r.request.spec.clone(), reply.nnz),
                _ => unreachable!(),
            })
            .collect();
        assert!(judge(&records, &expected, &w).iter().all(Option::is_none));
        *expected.get_mut(&records[1].request.spec).unwrap() += 1;
        let verdicts = judge(&records, &expected, &w);
        assert_eq!(verdicts.iter().flatten().count(), 1);
        assert!(
            verdicts[1].as_ref().unwrap().contains("oracle"),
            "{verdicts:?}"
        );
    }

    #[test]
    fn wrong_hit_flags_and_refusals_count_as_failures() {
        let w = by_name("galerkin_reorder").unwrap();
        let mut r = done(&w, 0, 9);
        let expected = HashMap::from([(r.request.spec.clone(), 9)]);
        assert!(verdict(&r, &expected, &w).is_none());
        if let Outcome::Done(reply) = &mut r.outcome {
            reply.hits = vec![false; 4];
        }
        assert!(verdict(&r, &expected, &w).unwrap().contains("cache hits"));
        r.outcome = Outcome::Refused("shed at depth 64".into());
        assert!(verdict(&r, &expected, &w).is_some());
        r.outcome = Outcome::Lost("no reply".into());
        assert!(verdict(&r, &expected, &w).is_some());
    }
}
