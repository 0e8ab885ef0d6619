//! The sharded executor's threads, counted: a run on `jobs` threads
//! uses exactly `min(jobs, hosts)` of them, the calling thread among
//! them, and every host is handled by one thread for the whole run.
//! Neither count may depend on how many windows the run holds, so each
//! shape runs at two lengths whose window counts differ at least
//! twofold.
//!
//! This is the count twin of `scripts/perf_smoke.sh`'s
//! `rack_sharded_ratio` gate: an executor that spawns its workers per
//! window instead of once per run reads about 0.1x there on a loaded
//! host, and fails here on any host.

use hvx::engine::shard::{HostCtx, HostModel, ShardSim};
use hvx::engine::Cycles;
use std::collections::HashSet;
use std::thread::ThreadId;

/// A ring host that forwards tokens to its successor after some local
/// work and records which thread handled each of its events.
struct Ring {
    clock: Cycles,
    threads: Vec<ThreadId>,
}

impl HostModel for Ring {
    type Event = u32; // remaining hops

    fn handle(&mut self, when: Cycles, hops: u32, ctx: &mut HostCtx<'_, u32>) {
        let thread = std::thread::current().id();
        if self.threads.last() != Some(&thread) {
            self.threads.push(thread);
        }
        self.clock = self.clock.max(when) + Cycles::new(300);
        if hops > 0 {
            let to = (ctx.host() + 1) % ctx.hosts();
            ctx.send(to, self.clock, ctx.lookahead(), hops - 1);
        }
    }
}

/// Runs a ring of `hosts` with one token per host lapping it `laps`
/// times on `jobs` threads (`run` when `jobs` is 0). Returns the
/// windows run, the distinct threads that handled each host, and the
/// distinct threads overall.
fn ring_threads(hosts: usize, jobs: usize, laps: u32) -> (u64, Vec<HashSet<ThreadId>>, usize) {
    let mut sim = ShardSim::new(Cycles::new(1_000));
    for _ in 0..hosts {
        sim.add_host(Ring {
            clock: Cycles::ZERO,
            threads: Vec::new(),
        });
    }
    let hops = laps * hosts as u32;
    for host in 0..hosts {
        sim.schedule(host, Cycles::new(host as u64 * 7), hops);
    }
    let stats = if jobs == 0 {
        sim.run()
    } else {
        sim.run_parallel(jobs)
    };
    assert_eq!(stats.events, hosts as u64 * (u64::from(hops) + 1));
    let per_host: Vec<HashSet<ThreadId>> = sim
        .into_models()
        .into_iter()
        .map(|host| host.threads.into_iter().collect())
        .collect();
    let all: HashSet<ThreadId> = per_host.iter().flatten().copied().collect();
    assert!(
        all.contains(&std::thread::current().id()),
        "the calling thread takes part"
    );
    (stats.windows, per_host, all.len())
}

#[test]
fn a_sharded_run_uses_min_jobs_hosts_threads_whatever_its_window_count() {
    for (hosts, jobs) in [
        (1, 0),
        (3, 0),
        (1, 4),
        (3, 1),
        (3, 2),
        (3, 16),
        (5, 4),
        (8, 2),
        (8, 3),
        (8, 8),
    ] {
        let want = jobs.clamp(1, hosts);
        let short = ring_threads(hosts, jobs, 4);
        let long = ring_threads(hosts, jobs, 12);
        assert!(
            long.0 >= 2 * short.0,
            "hosts = {hosts}: {} windows is not twice {}",
            long.0,
            short.0
        );
        for (windows, per_host, threads) in [short, long] {
            assert_eq!(
                threads, want,
                "hosts = {hosts}, jobs = {jobs}: {threads} threads over {windows} windows"
            );
            for (host, seen) in per_host.iter().enumerate() {
                assert_eq!(
                    seen.len(),
                    1,
                    "hosts = {hosts}, jobs = {jobs}: host {host} moved between \
                     {} threads over {windows} windows",
                    seen.len()
                );
            }
        }
    }
}
