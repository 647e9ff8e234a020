//! Reading what the program already reports: the wall-stamped phases of a
//! `WorldTrace`, as `run_model` returns it.

use agcm_mps::trace::{Event, WorldTrace};

/// One closed phase on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub name: &'static str,
    /// Name of the enclosing phase, if any.
    pub parent: Option<&'static str>,
    pub start: f64,
    pub end: f64,
}

impl Phase {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The closed phases of `rank`, in closing order. `walls[rank][i]` stamps
/// the i-th phase event of the rank's stream.
pub fn phases(trace: &WorldTrace, rank: usize) -> Vec<Phase> {
    let mut out = Vec::new();
    let mut open: Vec<(&'static str, f64)> = Vec::new();
    let mut stamps = trace.walls[rank].iter();
    for ev in &trace.ranks[rank] {
        match ev {
            Event::PhaseBegin(name) => {
                let at = *stamps.next().expect("one stamp per phase event");
                open.push((name, at));
            }
            Event::PhaseEnd(name) => {
                let at = *stamps.next().expect("one stamp per phase event");
                let (opened, start) = open.pop().expect("phase end without begin");
                assert_eq!(opened, *name, "phases nest");
                out.push(Phase {
                    name,
                    parent: open.last().map(|(n, _)| *n),
                    start,
                    end: at,
                });
            }
            _ => {}
        }
    }
    out
}

/// Total seconds of the phases of `rank` that satisfy `pick`.
pub fn total(phases: &[Phase], pick: impl Fn(&Phase) -> bool) -> f64 {
    phases.iter().filter(|p| pick(p)).map(Phase::duration).sum()
}

/// Durations of the `"step"` phases of `rank`, in step order.
pub fn step_seconds(trace: &WorldTrace, rank: usize) -> Vec<f64> {
    phases(trace, rank)
        .iter()
        .filter(|p| p.name == "step")
        .map(Phase::duration)
        .collect()
}

/// Phase shares of the step loop, each the maximum over ranks of the
/// phase's seconds over the maximum over ranks of the step seconds:
/// `[filter, halo, fd, physics, balance]`. `halo` counts both the exchange
/// before the finite differences and the one inside them; `fd` and
/// `physics` exclude what is nested in them and listed separately.
pub fn shares(trace: &WorldTrace) -> [f64; 5] {
    let mut max = [0.0f64; 6];
    for rank in 0..trace.size() {
        let ps = phases(trace, rank);
        let named = |name: &str| total(&ps, |p| p.name == name);
        let nested =
            |name: &str, parent: &str| total(&ps, |p| p.name == name && p.parent == Some(parent));
        let per_rank = [
            named("filter"),
            named("halo"),
            named("fd") - nested("halo", "fd"),
            named("physics") - nested("balance", "physics"),
            named("balance"),
            named("step"),
        ];
        for (m, v) in max.iter_mut().zip(per_rank) {
            *m = m.max(v);
        }
    }
    let steps = max[5];
    [0, 1, 2, 3, 4].map(|i| if steps > 0.0 { max[i] / steps } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_nest_and_shares_split_children() {
        use Event::{PhaseBegin as B, PhaseEnd as E};
        let events = vec![
            B("step"),
            B("filter"),
            E("filter"),
            B("halo"),
            E("halo"),
            B("fd"),
            B("halo"),
            E("halo"),
            E("fd"),
            B("physics"),
            E("physics"),
            E("step"),
        ];
        let walls = vec![0.0, 0.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 7.0, 7.0, 10.0, 10.0];
        let trace = WorldTrace {
            ranks: vec![events],
            walls: vec![walls],
            collectives: vec![Vec::new()],
        };
        let ps = phases(&trace, 0);
        assert_eq!(ps.len(), 6);
        assert_eq!(ps[2].parent, Some("fd"));
        assert_eq!(step_seconds(&trace, 0), vec![10.0]);
        let [filter, halo, fd, physics, balance] = shares(&trace);
        assert_eq!(
            (filter, halo, fd, physics, balance),
            (0.2, 0.2, 0.3, 0.3, 0.0)
        );
    }
}
