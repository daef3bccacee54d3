//! Thread-block dispatcher.
//!
//! Real GPUs hand the next block in launch order to the first SM with a
//! free slot. For makespan/balance purposes this is equivalent to greedy
//! list scheduling onto the least-loaded SM (each SM conserves its total
//! work regardless of intra-SM interleaving), which is what we simulate.
//! Per-SM busy time falls straight out — Figure 3(a)'s bars — and the
//! paper's Load Balancing Index (Equation 3) is
//!
//! ```text
//! LBI = (Σᵢ cycles(SMᵢ) / MAX cycles(SM)) / N
//! ```

/// Outcome of scheduling one kernel's blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Busy cycles per SM.
    pub sm_busy: Vec<f64>,
    /// Kernel makespan in cycles (max over SMs).
    pub makespan: f64,
}

impl ScheduleResult {
    /// The paper's Load Balancing Index: mean SM time over max SM time,
    /// in `[0, 1]`; 1 = perfectly balanced.
    pub fn lbi(&self) -> f64 {
        let max = self.makespan;
        if max <= 0.0 {
            return 1.0;
        }
        let n = self.sm_busy.len() as f64;
        self.sm_busy.iter().map(|&c| c / max).sum::<f64>() / n
    }
}

/// Greedy list scheduling of `durations` (in launch order) onto `num_sms`
/// identical SMs: each block goes to the SM that frees up first.
pub fn schedule(durations: &[f64], num_sms: u32) -> ScheduleResult {
    assert!(num_sms > 0, "need at least one SM");
    let n = num_sms as usize;
    let mut busy = vec![0.0f64; n];
    for &d in durations {
        debug_assert!(d.is_finite() && d >= 0.0, "block duration must be finite");
        // Argmin over SM free times; ties go to the lowest index, matching
        // hardware's deterministic slot scan.
        let (sm, _) = busy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("at least one SM");
        busy[sm] += d;
    }
    let makespan = busy.iter().copied().fold(0.0, f64::max);
    ScheduleResult {
        sm_busy: busy,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_blocks_balance_perfectly() {
        let r = schedule(&[10.0; 30], 30);
        assert_eq!(r.makespan, 10.0);
        assert!((r.lbi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_dominator_wrecks_lbi() {
        // 1 block of 1000 cycles + 29 of 1 cycle on 30 SMs: the paper's
        // overloaded-block scenario.
        let mut d = vec![1000.0];
        d.extend(std::iter::repeat_n(1.0, 29));
        let r = schedule(&d, 30);
        assert_eq!(r.makespan, 1000.0);
        assert!(r.lbi() < 0.05, "LBI should collapse: {}", r.lbi());
    }

    #[test]
    fn splitting_the_dominator_restores_lbi() {
        // Same total work, dominator split into 32 pieces.
        let mut d: Vec<f64> = std::iter::repeat_n(1000.0 / 32.0, 32).collect();
        d.extend(std::iter::repeat_n(1.0, 29));
        let r = schedule(&d, 30);
        assert!(r.makespan < 70.0, "makespan {}", r.makespan);
        assert!(r.lbi() > 0.45, "LBI should recover: {}", r.lbi());
    }

    #[test]
    fn work_is_conserved() {
        let d = [3.0, 7.0, 2.0, 9.0, 4.0];
        let r = schedule(&d, 2);
        let total: f64 = r.sm_busy.iter().sum();
        assert!((total - 25.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_at_least_longest_block_and_mean_load() {
        let d = [5.0, 1.0, 1.0, 1.0];
        let r = schedule(&d, 4);
        assert!(r.makespan >= 5.0);
        let r2 = schedule(&[2.0; 8], 4);
        assert!((r2.makespan - 4.0).abs() < 1e-12);
    }

    #[test]
    fn launch_order_changes_the_schedule_heavy_first_wins() {
        // Greedy list scheduling is order-sensitive: the same block
        // multiset scheduled heavy-first (the LPT heuristic a
        // degree-descending row reorder approximates) beats the same
        // blocks arriving heavy-last. This is the lever the plan-cached
        // reorder stage pulls — it permutes launch order, never work.
        let mut heavy_last: Vec<f64> = vec![1.0; 8];
        heavy_last.extend([7.0, 9.0]);
        let mut heavy_first = heavy_last.clone();
        heavy_first.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let worst = schedule(&heavy_last, 2);
        let best = schedule(&heavy_first, 2);
        let total: f64 = heavy_last.iter().sum();
        assert!((worst.sm_busy.iter().sum::<f64>() - total).abs() < 1e-12);
        assert!((best.sm_busy.iter().sum::<f64>() - total).abs() < 1e-12);
        assert!(
            best.makespan < worst.makespan,
            "heavy-first {} must beat heavy-last {}",
            best.makespan,
            worst.makespan
        );
        assert!(
            best.lbi() > worst.lbi(),
            "{} vs {}",
            best.lbi(),
            worst.lbi()
        );
    }

    #[test]
    fn empty_launch_is_trivially_balanced() {
        let r = schedule(&[], 30);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.lbi(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn zero_sms_rejected() {
        let _ = schedule(&[1.0], 0);
    }
}
