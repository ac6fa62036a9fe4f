//! Loss metrics: overall loss rate `P_l`, worst-errored-second loss
//! `P_l-WES`, and the windowed loss process of Fig 17.

/// Result of one queueing simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Overall byte loss rate `P_l`.
    pub loss_rate: f64,
    /// Loss rate within the worst errored second (`P_l-WES`).
    pub worst_second_loss: f64,
    /// Bytes lost per slot (kept for windowed analyses).
    pub loss_per_slot: Vec<f64>,
    /// Bytes offered per slot.
    pub arrival_per_slot: Vec<f64>,
    /// Slot duration in seconds.
    pub dt: f64,
}

impl SimResult {
    /// Computes both headline metrics from per-slot records.
    pub fn new(loss_per_slot: Vec<f64>, arrival_per_slot: Vec<f64>, dt: f64) -> Self {
        assert_eq!(loss_per_slot.len(), arrival_per_slot.len());
        assert!(dt > 0.0);
        let total_arr: f64 = arrival_per_slot.iter().sum();
        let total_loss: f64 = loss_per_slot.iter().sum();
        let loss_rate = if total_arr > 0.0 { total_loss / total_arr } else { 0.0 };
        let worst_second_loss =
            worst_window_loss(&loss_per_slot, &arrival_per_slot, (1.0 / dt).round() as usize);
        SimResult {
            loss_rate,
            worst_second_loss,
            loss_per_slot,
            arrival_per_slot,
            dt,
        }
    }

    /// Running loss-rate over a window of `frames` frames, sampled once
    /// per window-step slot (Fig 17 uses a 1000-frame window).
    pub fn windowed_loss(&self, window_slots: usize) -> Vec<f64> {
        assert!(window_slots > 0);
        let n = self.loss_per_slot.len();
        let mut out = Vec::with_capacity(n);
        let mut loss_acc = 0.0;
        let mut arr_acc = 0.0;
        for i in 0..n {
            loss_acc += self.loss_per_slot[i];
            arr_acc += self.arrival_per_slot[i];
            if i >= window_slots {
                loss_acc -= self.loss_per_slot[i - window_slots];
                arr_acc -= self.arrival_per_slot[i - window_slots];
            }
            out.push(if arr_acc > 0.0 { loss_acc / arr_acc } else { 0.0 });
        }
        out
    }
}

/// Maximum over non-overlapping windows of `window_slots` slots of the
/// within-window loss rate; windows with zero arrivals are skipped.
pub fn worst_window_loss(loss: &[f64], arrivals: &[f64], window_slots: usize) -> f64 {
    assert!(window_slots > 0);
    let mut worst = 0.0f64;
    let mut i = 0;
    while i < loss.len() {
        let j = (i + window_slots).min(loss.len());
        let l: f64 = loss[i..j].iter().sum();
        let a: f64 = arrivals[i..j].iter().sum();
        if a > 0.0 {
            worst = worst.max(l / a);
        }
        i = j;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rate_is_total_ratio() {
        let r = SimResult::new(vec![0.0, 5.0, 0.0], vec![10.0, 10.0, 10.0], 0.5);
        assert!((r.loss_rate - 5.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn worst_second_exceeds_overall() {
        // dt = 0.5 s → 2 slots per second. Second #1 loses 50 %, second #2
        // loses nothing.
        let r = SimResult::new(
            vec![10.0, 0.0, 0.0, 0.0],
            vec![10.0, 10.0, 10.0, 10.0],
            0.5,
        );
        assert!((r.loss_rate - 0.25).abs() < 1e-12);
        assert!((r.worst_second_loss - 0.5).abs() < 1e-12);
        assert!(r.worst_second_loss >= r.loss_rate);
    }

    #[test]
    fn no_loss_gives_zeros() {
        let r = SimResult::new(vec![0.0; 10], vec![1.0; 10], 0.1);
        assert_eq!(r.loss_rate, 0.0);
        assert_eq!(r.worst_second_loss, 0.0);
    }

    #[test]
    fn worst_window_skips_empty_windows() {
        let w = worst_window_loss(&[0.0, 0.0, 3.0, 1.0], &[0.0, 0.0, 4.0, 4.0], 2);
        assert!((w - 0.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_loss_tracks_bursts() {
        let mut loss = vec![0.0; 100];
        let arr = vec![10.0; 100];
        for v in loss.iter_mut().take(60).skip(50) {
            *v = 10.0;
        }
        let r = SimResult::new(loss, arr, 0.01);
        let w = r.windowed_loss(10);
        assert!((w[59] - 1.0).abs() < 1e-12, "full window inside burst");
        assert_eq!(w[30], 0.0);
        assert!((w[64] - 0.5).abs() < 1e-12, "half-overlapping window");
    }

    #[test]
    fn windowed_loss_length_matches() {
        let r = SimResult::new(vec![0.0; 7], vec![1.0; 7], 0.1);
        assert_eq!(r.windowed_loss(3).len(), 7);
    }
}
