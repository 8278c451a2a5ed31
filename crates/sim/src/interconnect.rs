//! The cluster fabric: a shared host link plus optional peer lanes.
//!
//! The single-device simulator gives every job a private PCIe connection
//! ([`crate::Gpu`]'s transfer engine). A cluster does not: all GPUs on a
//! node share one host link, and a job's swap traffic, checkpoint copies,
//! and gradient allreduces contend for it. This module models that
//! contention with the same FIFO serialization queues the device uses
//! ([`crate::Lane`]): a transfer admitted while the link is busy *waits*
//! for the earlier traffic to drain instead of overlapping for free, so
//! concurrent transfers queue and stretch.
//!
//! Two tiers of connectivity:
//!
//! * the **host link** — one shared pipe (PCIe) carrying every
//!   device↔host byte of every GPU: replayed swap traffic,
//!   checkpoint/restore copies, and cross-domain allreduce rings;
//! * optional **peer lanes** — one pipe per *link domain* (a group of
//!   `link_domain` consecutive GPUs, think NVLink island or PCIe switch),
//!   carrying allreduce rings whose replicas all sit inside the domain.
//!
//! Gradient allreduce uses the standard ring schedule: each of `k`
//! replicas sends and receives `2·(k−1)/k × gradient_bytes`. Inside one
//! domain the ring's links run in parallel, so the lane carries one
//! replica's share; across domains every replica's share crosses the one
//! shared host link and serializes.
//!
//! Determinism: lanes only hold a `busy_until` watermark and counters, and
//! every reservation resolves immediately into `(start, end)` times, so a
//! fixed call sequence always yields identical timings.

use std::sync::Arc;

use crate::time::{Duration, Time};
use crate::transfer::{Lane, LinkStats, Transfer};

/// Static description of a cluster's shared interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectSpec {
    /// Human-readable fabric name (also the CLI/stats name).
    pub name: String,
    /// Bandwidth of the one host link shared by every GPU, in bytes/s.
    pub host_bw: f64,
    /// Bandwidth of each link-domain peer lane, in bytes/s. Zero disables
    /// peer lanes (all allreduce traffic crosses the host link).
    pub peer_bw: f64,
    /// GPUs per link domain: GPUs `[d·n, (d+1)·n)` form domain `d`.
    /// Values of 0 or 1 mean no two GPUs share a domain.
    pub link_domain: usize,
    /// Fixed setup latency charged once per queued transfer.
    pub transfer_overhead: Duration,
}

impl InterconnectSpec {
    /// A bare shared PCIe 3.0 ×16 host link and no peer lanes — every
    /// GPU's traffic, including allreduce rings, serializes on one pipe.
    ///
    /// The 12 GB/s figure is the effective pinned-memory bandwidth the
    /// paper measures on its P100 testbed (§6.2).
    pub fn pcie_shared() -> InterconnectSpec {
        InterconnectSpec {
            name: "pcie-shared".to_owned(),
            host_bw: 12.0e9,
            peer_bw: 0.0,
            link_domain: 1,
            transfer_overhead: Duration::from_micros(10),
        }
    }

    /// A shared PCIe host link plus NVLink-class peer lanes connecting
    /// domains of `domain` consecutive GPUs (25 GB/s per lane, the
    /// per-direction bandwidth of a first-generation NVLink brick).
    ///
    /// Gangs placed inside one domain allreduce over their own lane;
    /// gangs spanning domains fall back to the shared host link.
    pub fn pcie_peer_domains(domain: usize) -> InterconnectSpec {
        InterconnectSpec {
            name: format!("pcie+peer{domain}"),
            host_bw: 12.0e9,
            peer_bw: 25.0e9,
            link_domain: domain,
            transfer_overhead: Duration::from_micros(10),
        }
    }

    /// An infinitely fast fabric: every transfer is instantaneous and
    /// nothing queues. Useful as the no-contention limit in tests — a
    /// run routed through it must time exactly like one with the
    /// interconnect model disabled.
    pub fn unconstrained() -> InterconnectSpec {
        InterconnectSpec {
            name: "unconstrained".to_owned(),
            host_bw: f64::INFINITY,
            peer_bw: f64::INFINITY,
            link_domain: usize::MAX,
            transfer_overhead: Duration::ZERO,
        }
    }

    /// Parses a CLI fabric name: `off` (no interconnect model), `pcie`
    /// (shared host link only), or `peer<k>` (host link + peer lanes over
    /// domains of `k` GPUs, e.g. `peer4`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<Option<InterconnectSpec>, String> {
        if s == "off" {
            return Ok(None);
        }
        if s == "pcie" || s == "pcie-shared" {
            return Ok(Some(InterconnectSpec::pcie_shared()));
        }
        if let Some(k) = s
            .strip_prefix("peer")
            .or_else(|| s.strip_prefix("pcie+peer"))
        {
            let k: usize = k
                .parse()
                .map_err(|_| format!("invalid link-domain size in `{s}`"))?;
            if k < 2 {
                return Err(format!("link domain `{s}` must group at least 2 GPUs"));
            }
            return Ok(Some(InterconnectSpec::pcie_peer_domains(k)));
        }
        Err(format!(
            "unknown interconnect `{s}` (expected off, pcie, or peer<k>)"
        ))
    }

    /// The link domain a GPU belongs to.
    pub fn domain_of(&self, gpu: usize) -> usize {
        gpu / self.link_domain.max(1)
    }

    /// Whether every GPU in `gpus` shares one link domain (vacuously true
    /// for zero or one GPU).
    pub fn same_domain(&self, gpus: &[usize]) -> bool {
        match gpus.first() {
            Some(&first) => gpus
                .iter()
                .all(|&g| self.domain_of(g) == self.domain_of(first)),
            None => true,
        }
    }

    /// Bytes each replica moves in a `k`-replica ring allreduce of
    /// `grad_bytes` of gradients: `2·(k−1)/k × grad_bytes` (zero for
    /// fewer than two replicas).
    pub fn allreduce_bytes(&self, grad_bytes: u64, k: usize) -> u64 {
        if k < 2 {
            return 0;
        }
        ((2 * (k as u128 - 1) * grad_bytes as u128) / k as u128) as u64
    }
}

/// The live fabric: the shared host link plus one peer lane per domain.
///
/// Every pipe is a [`Lane`] from the unified transfer layer — the same
/// serialization model the per-device [`crate::TransferEngine`] uses — so
/// the cluster and a single GPU price and queue traffic identically.
#[derive(Debug, Clone)]
pub struct Interconnect {
    spec: InterconnectSpec,
    host: Lane,
    /// One lane per link domain; empty when the spec has no peer lanes.
    peers: Vec<Lane>,
}

impl Interconnect {
    /// Builds the fabric for a cluster of `gpus` devices.
    pub fn new(spec: InterconnectSpec, gpus: usize) -> Interconnect {
        let domains = if spec.peer_bw > 0.0 && spec.link_domain >= 2 {
            gpus.div_ceil(spec.link_domain.min(gpus.max(1)))
        } else {
            0
        };
        let peers = (0..domains)
            .map(|d| Lane::new(format!("peer{d}"), spec.peer_bw, spec.transfer_overhead))
            .collect();
        Interconnect {
            host: Lane::new("host", spec.host_bw, spec.transfer_overhead),
            spec,
            peers,
        }
    }

    /// The fabric description.
    pub fn spec(&self) -> &InterconnectSpec {
        &self.spec
    }

    /// Queues `bytes` of device↔host traffic on the shared host link.
    pub fn host_transfer(&mut self, now: Time, bytes: u64) -> Transfer {
        self.host.admit(now, bytes)
    }

    /// Queues `bytes` on the shared host link and returns the transfer
    /// together with its *deduplicated contention charge* (the portion of
    /// its wait no earlier transfer was billed for — see
    /// [`Lane::admit_charged`]). The cluster's per-tensor swap replay uses
    /// this so a job's `comm_delay` decomposes into per-transfer charges
    /// without ever double-counting a busy period.
    pub fn host_admit(&mut self, want: Time, bytes: u64) -> (Transfer, Duration) {
        self.host.admit_charged(want, bytes)
    }

    /// The shared host link's name (`host`), for trace records.
    pub fn host_name(&self) -> &Arc<str> {
        self.host.name()
    }

    /// The lane name an allreduce across `gpus` would ride: the gang's
    /// peer lane (`peer<d>`) when one exists and the gang fits a single
    /// link domain, otherwise `host`. Used to label trace records; the
    /// name is the lane's own, shared rather than copied.
    pub fn allreduce_route(&self, gpus: &[usize]) -> &Arc<str> {
        if !self.peers.is_empty() && self.spec.same_domain(gpus) {
            if let Some(&first) = gpus.first() {
                return self.peers[self.spec.domain_of(first)].name();
            }
        }
        self.host.name()
    }

    /// Performs a ring allreduce of `grad_bytes` of gradients across the
    /// replicas on `gpus`, starting no earlier than `now`.
    ///
    /// Same-domain gangs use their domain's peer lane (the ring's links
    /// run in parallel, so the lane carries one replica's
    /// `2·(k−1)/k × grad_bytes` share). Cross-domain gangs — or any gang
    /// on a fabric without peer lanes — push every replica's share over
    /// the shared host link, where it serializes with all other traffic.
    pub fn allreduce(&mut self, now: Time, gpus: &[usize], grad_bytes: u64) -> Transfer {
        let k = gpus.len();
        let per_replica = self.spec.allreduce_bytes(grad_bytes, k);
        if per_replica == 0 {
            return Transfer {
                start: now,
                end: now,
            };
        }
        if !self.peers.is_empty() && self.spec.same_domain(gpus) {
            let domain = self.spec.domain_of(gpus[0]);
            return self.peers[domain].admit(now, per_replica);
        }
        self.host.admit(now, per_replica * k as u64)
    }

    /// Per-link accounting: the host link first, then every peer lane in
    /// domain order (insertion-ordered, so stats JSON is deterministic).
    pub fn link_stats(&self) -> Vec<LinkStats> {
        let mut out = vec![self.host.stats()];
        out.extend(self.peers.iter().map(Lane::stats));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(host_bw: f64) -> InterconnectSpec {
        InterconnectSpec {
            name: "test".into(),
            host_bw,
            peer_bw: 0.0,
            link_domain: 1,
            transfer_overhead: Duration::ZERO,
        }
    }

    #[test]
    fn transfers_queue_instead_of_overlapping() {
        // 1e9 B/s: 1 MB takes 1 ms.
        let mut ic = Interconnect::new(spec(1e9), 2);
        let a = ic.host_transfer(Time::ZERO, 1_000_000);
        assert_eq!(a.start, Time::ZERO);
        assert_eq!(a.end, Time::ZERO + Duration::from_millis(1));
        // Enqueued mid-flight: waits for `a` to drain.
        let b = ic.host_transfer(Time::ZERO + Duration::from_micros(200), 1_000_000);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end, a.end + Duration::from_millis(1));
        // Enqueued after the queue drained: starts immediately.
        let c = ic.host_transfer(b.end + Duration::from_millis(5), 1_000_000);
        assert_eq!(c.start, b.end + Duration::from_millis(5));
    }

    #[test]
    fn zero_byte_transfers_are_free() {
        let mut ic = Interconnect::new(spec(1e9), 1);
        ic.host_transfer(Time::ZERO, 1_000_000);
        let free = ic.host_transfer(Time::ZERO, 0);
        assert_eq!(free.start, Time::ZERO);
        assert_eq!(free.end, Time::ZERO);
        assert_eq!(ic.link_stats()[0].transfers, 1);
    }

    #[test]
    fn ring_allreduce_volume() {
        let s = InterconnectSpec::pcie_peer_domains(4);
        assert_eq!(s.allreduce_bytes(1000, 1), 0);
        assert_eq!(s.allreduce_bytes(1000, 2), 1000);
        assert_eq!(s.allreduce_bytes(1000, 4), 1500);
    }

    #[test]
    fn same_domain_gangs_use_peer_lane_cross_domain_use_host() {
        let mut ic = Interconnect::new(InterconnectSpec::pcie_peer_domains(2), 4);
        // GPUs 0,1 share domain 0: allreduce rides the peer lane.
        ic.allreduce(Time::ZERO, &[0, 1], 1 << 20);
        let stats = ic.link_stats();
        assert_eq!(stats[0].bytes, 0, "host untouched by same-domain gang");
        assert_eq!(stats[1].bytes, 1 << 20);
        // GPUs 1,2 span domains: every replica's share hits the host link.
        ic.allreduce(Time::ZERO, &[1, 2], 1 << 20);
        assert_eq!(ic.link_stats()[0].bytes, 2 << 20);
    }

    #[test]
    fn cross_domain_allreduce_is_slower() {
        let s = InterconnectSpec::pcie_peer_domains(2);
        let mut ic = Interconnect::new(s, 4);
        let same = ic.allreduce(Time::ZERO, &[0, 1], 1 << 30);
        let mut ic2 = Interconnect::new(InterconnectSpec::pcie_peer_domains(2), 4);
        let cross = ic2.allreduce(Time::ZERO, &[1, 2], 1 << 30);
        assert!(
            cross.end.saturating_since(cross.start) > same.end.saturating_since(same.start),
            "spanning domains must cost more than staying inside one"
        );
    }

    #[test]
    fn unconstrained_fabric_is_instantaneous() {
        let mut ic = Interconnect::new(InterconnectSpec::unconstrained(), 8);
        let t = Time::from_micros(5);
        let a = ic.host_transfer(t, u64::MAX / 2);
        assert_eq!(a.start, t);
        assert_eq!(a.end, t);
        let b = ic.allreduce(t, &[0, 5], 1 << 40);
        assert_eq!(b.end, t);
    }

    #[test]
    fn parse_accepts_cli_names() {
        assert_eq!(InterconnectSpec::parse("off"), Ok(None));
        assert_eq!(
            InterconnectSpec::parse("pcie"),
            Ok(Some(InterconnectSpec::pcie_shared()))
        );
        assert_eq!(
            InterconnectSpec::parse("peer4"),
            Ok(Some(InterconnectSpec::pcie_peer_domains(4)))
        );
        assert!(InterconnectSpec::parse("peer1").is_err());
        assert!(InterconnectSpec::parse("warp").is_err());
    }
}
