//! One router over shield backends: placement, replication, failover,
//! rehydration and telemetry.
//!
//! A [`ShardRouter`] places named deployments on its member
//! [`ShieldBackend`]s ("shards") and keeps each on `r` of them:
//! [`ShardRouter::new`] builds in-process [`ShieldServer`]s with `r = 1`,
//! [`ShardRouter::remote`] builds [`RemoteShard`]s (shards in other
//! processes) with `r = 2` by default.  Both run the same code; with
//! `r = 1` every replica walk and telemetry sum has one element.
//!
//! **Placement** is rendezvous hashing ([`rendezvous_rank`]): the replica
//! set is the `r` members with the best `fnv1a64(name ‖ 0xFF ‖ index)`,
//! best first.  Adding member `N` changes only the sets that now contain
//! `N`, in expectation `r/(N+1)` of them.
//!
//! **Decide** walks the replicas in rank order.  It skips members marked
//! down and fails over when one fails at the transport level
//! ([`ServeError::Remote`], which marks it down; in-process members never
//! do) or lost the deployment.  When no replica serves, the caller gets
//! [`ServeError::Unavailable`] (over HTTP a `503` with `Retry-After`).
//!
//! **The registry** holds per deployment the canonical artifact bytes, the
//! generation, and the members that acknowledged the bytes.  A deploy
//! succeeds when one replica accepts.  A probe cycle
//! ([`probe_now`](ShardRouter::probe_now), or the background prober)
//! marks members up or down and pushes the bytes to every replica that
//! did not acknowledge them or does not report the deployment, so a
//! replica that missed a redeploy serves the new shield once it is back.
//! The generation is the router's: the highest the accepting replicas
//! report, and at least one past the previous deploy.  After a move
//! ([`add_member`](ShardRouter::add_member)), `GET /healthz` reports the
//! registry's generation (the last deploy's), not a restart at 1.
//!
//! **Telemetry** sums each replica's live snapshot or, when it does not
//! answer, the last snapshot fetched from it (the ledger), so counters
//! survive a member's death; latency percentiles come from the first
//! replica that answered, and one part is returned as is.  A moved
//! deployment starts fresh counters on its new member.

use crate::artifact::ShieldArtifact;
use crate::codec::{fnv1a64, fnv1a64_continue};
use crate::http::ShieldBackend;
use crate::remote::{RemoteShard, RemoteShardConfig};
use crate::server::{ServeError, ShieldServer};
use crate::telemetry::DeploymentTelemetry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use vrl::shield::ShieldDecision;

/// The first `count` of `members` member indices ranked for `name` by
/// rendezvous score, best first: a deployment's replica set.
///
/// Returns `min(count, members)` distinct indices; ties prefer the lower
/// index.
#[must_use]
pub fn rendezvous_rank(name: &str, members: usize, count: usize) -> Vec<usize> {
    // Hash the name prefix once, then fold each member's suffix onto it —
    // equivalent to hashing `name ‖ 0xFF ‖ index` per member.
    let prefix = fnv1a64_continue(fnv1a64(name.as_bytes()), &[0xFF]);
    let mut scored: Vec<(u64, usize)> = (0..members)
        .map(|index| {
            let score = fnv1a64_continue(prefix, &(index as u64).to_le_bytes());
            (score, index)
        })
        .collect();
    scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(count).map(|(_, i)| i).collect()
}

/// Tunables of a router over remote shards ([`ShardRouter::remote`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replicas per deployment (clamped to the shard count).  2 means
    /// primary + one failover.
    pub replicas: usize,
    /// Cadence of the background health prober; `None` disables the
    /// thread (tests drive [`ShardRouter::probe_now`] directly).
    pub probe_interval: Option<Duration>,
    /// Deadline/retry/breaker tuning applied to every shard client.
    pub shard_config: RemoteShardConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            probe_interval: Some(Duration::from_millis(500)),
            shard_config: RemoteShardConfig::default(),
        }
    }
}

/// Aggregated serving totals for one shard (the sums over its deployments'
/// [`DeploymentTelemetry`] counters).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: usize,
    /// Deployments currently held by the shard.
    pub deployments: u64,
    /// Requests served across those deployments.
    pub requests: u64,
    /// Shield decisions taken.
    pub decisions: u64,
    /// Decisions where the shield overrode the oracle.
    pub interventions: u64,
    /// Hot redeploys.
    pub redeploys: u64,
}

/// Router-wide telemetry: per-shard totals plus their sum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouterTelemetry {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardTelemetry>,
    /// Deployments across the shards (once per replica).
    pub deployments: u64,
    /// Requests across the shards.
    pub requests: u64,
    /// Decisions across the shards.
    pub decisions: u64,
    /// Interventions across the shards.
    pub interventions: u64,
    /// Redeploys across the shards.
    pub redeploys: u64,
}

/// One member plus its liveness flag.
struct Member {
    backend: Arc<dyn ShieldBackend>,
    /// Cleared by a failed probe or a transport failure, set by a
    /// succeeding probe; live traffic skips down members.
    up: AtomicBool,
}

impl Member {
    fn new(backend: Arc<dyn ShieldBackend>) -> Arc<Member> {
        let up = AtomicBool::new(true);
        Arc::new(Member { backend, up })
    }
}

type Replicas = Vec<(usize, Arc<Member>)>;

/// What the registry knows about one deployment.
struct Entry {
    /// Canonical checksummed artifact bytes — the rehydration source.
    bytes: Arc<[u8]>,
    generation: u64,
    /// Members that accepted `bytes`.
    acked: Vec<usize>,
}

struct State {
    /// Append-only, so the member count identifies the membership.
    members: Vec<Arc<Member>>,
    registry: HashMap<String, Entry>,
}

/// What callers and the prober thread share.
struct Core {
    state: RwLock<State>,
    /// Held by every operation that writes to members (deploy, undeploy,
    /// add_member, probe rehydration), so a push of older bytes never lands
    /// after a newer deploy of the same name.
    writes: Mutex<()>,
    /// Last telemetry snapshot fetched per `(deployment, member)`.
    ledger: Mutex<HashMap<(String, usize), DeploymentTelemetry>>,
    replicas: usize,
}

fn unavailable(deployment: &str, detail: String) -> ServeError {
    ServeError::Unavailable {
        deployment: deployment.to_string(),
        detail,
        retry_after: Duration::from_secs(1),
    }
}

impl Core {
    fn read(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().expect("router lock never poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().expect("router lock never poisoned")
    }

    fn lock_writes(&self) -> MutexGuard<'_, ()> {
        self.writes.lock().expect("write lock never poisoned")
    }

    fn replicas_in(&self, state: &State, name: &str) -> Replicas {
        rendezvous_rank(name, state.members.len(), self.replicas)
            .into_iter()
            .map(|index| (index, Arc::clone(&state.members[index])))
            .collect()
    }

    /// One probe cycle over every member: flip up/down flags and
    /// rehydrate stale replicas.  Returns the members' liveness.
    fn probe_cycle(&self) -> Vec<bool> {
        let members = self.read().members.clone();
        let mut liveness = Vec::with_capacity(members.len());
        for (index, member) in members.iter().enumerate() {
            let probe = member.backend.probe_deployments();
            let up = probe.is_ok();
            crate::obs::fleet_probes(if up { "up" } else { "down" }).inc();
            member.up.store(up, Ordering::SeqCst);
            if let Ok(reported) = probe {
                let _writes = self.lock_writes();
                let pushed = self.push_stale(index, member, &reported);
                crate::obs::fleet_rehydrations().add(pushed.len() as u64);
            }
            liveness.push(up);
        }
        liveness
    }

    /// Pushes to member `index` (the next one when it is not a member
    /// yet) the current bytes of every deployment it replicates but did
    /// not acknowledge or does not report, and returns the names it
    /// accepted.  Callers hold the write lock.
    fn push_stale(&self, index: usize, member: &Member, reported: &[(String, u64)]) -> Vec<String> {
        let stale: Vec<(String, Arc<[u8]>)> = {
            let state = self.read();
            let count = state.members.len().max(index + 1);
            state
                .registry
                .iter()
                .filter(|(name, entry)| {
                    !entry.acked.contains(&index) || !reported.iter().any(|(r, _)| r == *name)
                })
                .filter(|(name, _)| rendezvous_rank(name, count, self.replicas).contains(&index))
                .map(|(name, entry)| (name.clone(), Arc::clone(&entry.bytes)))
                .collect()
        };
        let mut pushed = Vec::with_capacity(stale.len());
        for (name, bytes) in stale {
            if member.backend.put_artifact_bytes(&name, &bytes).is_ok() {
                let mut state = self.write();
                let entry = state.registry.get_mut(&name).expect("registry is locked");
                if !entry.acked.contains(&index) {
                    entry.acked.push(index);
                }
                pushed.push(name);
            }
        }
        pushed
    }
}

/// Routes deployments across member shards by rendezvous hashing on the
/// deployment name — see the module docs.
///
/// Implements [`ShieldBackend`], so an
/// [`HttpFrontend`](crate::http::HttpFrontend) can serve a whole router
/// behind one address.
pub struct ShardRouter {
    core: Arc<Core>,
    /// Dropping the sender stops the background prober.
    prober: Option<(Sender<()>, JoinHandle<()>)>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = self.shard_count();
        f.debug_struct("ShardRouter")
            .field("shards", &shards)
            .finish_non_exhaustive()
    }
}

impl ShardRouter {
    /// A router over `shards` fresh in-process [`ShieldServer`]s with
    /// `workers_per_shard` batch workers each, one replica per deployment,
    /// and no prober.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `workers_per_shard == 0`.
    #[must_use]
    pub fn new(shards: usize, workers_per_shard: usize) -> Self {
        let server = |_| Arc::new(ShieldServer::with_workers(workers_per_shard)) as _;
        ShardRouter::from_members((0..shards).map(server).collect(), 1, None)
    }

    /// A router over one [`RemoteShard`] per address, each tuned by
    /// [`FleetConfig::shard_config`].
    ///
    /// # Panics
    ///
    /// Panics when `addrs` is empty.
    #[must_use]
    pub fn remote(addrs: &[SocketAddr], config: FleetConfig) -> Self {
        let shard =
            |&addr| Arc::new(RemoteShard::with_config(addr, config.shard_config.clone())) as _;
        let members = addrs.iter().map(shard).collect();
        ShardRouter::from_members(members, config.replicas, config.probe_interval)
    }

    /// A router over arbitrary members, keeping each deployment on
    /// `replicas` of them (at least 1, at most all).  Members start marked
    /// up; with a `probe_interval` the background prober starts now.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty.
    #[must_use]
    pub fn from_members(
        members: Vec<Arc<dyn ShieldBackend>>,
        replicas: usize,
        probe_interval: Option<Duration>,
    ) -> Self {
        assert!(!members.is_empty(), "a router needs at least one shard");
        let members = members.into_iter().map(Member::new).collect();
        let registry = HashMap::new();
        let core = Arc::new(Core {
            state: RwLock::new(State { members, registry }),
            writes: Mutex::new(()),
            ledger: Mutex::new(HashMap::new()),
            replicas: replicas.max(1),
        });
        let prober = probe_interval.map(|interval| {
            let (stop, stopped) = mpsc::channel::<()>();
            let core = Arc::clone(&core);
            let handle = std::thread::Builder::new()
                .name("vrl-router-probe".to_string())
                .spawn(move || loop {
                    core.probe_cycle();
                    if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                        break;
                    }
                })
                .expect("spawn router prober");
            (stop, handle)
        });
        ShardRouter { core, prober }
    }

    /// Number of shards currently in the router.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.core.read().members.len()
    }

    /// The replica set (shard indices, best first) serving `name`.
    #[must_use]
    pub fn replicas_for(&self, name: &str) -> Vec<usize> {
        rendezvous_rank(name, self.shard_count(), self.core.replicas)
    }

    /// Per-shard liveness flags, in shard order.
    #[must_use]
    pub fn shard_liveness(&self) -> Vec<bool> {
        let state = self.core.read();
        let up = |member: &Arc<Member>| member.up.load(Ordering::SeqCst);
        state.members.iter().map(up).collect()
    }

    /// Runs one synchronous probe cycle (what the background prober does
    /// each tick): flips up/down flags, heals breakers, and rehydrates
    /// stale replicas.  Returns per-shard liveness after the cycle.
    pub fn probe_now(&self) -> Vec<bool> {
        self.core.probe_cycle()
    }

    /// Deploys (or hot-redeploys) `artifact` under `name` on every replica
    /// and records its canonical bytes.  Succeeds when at least one replica
    /// accepted (probes bring the others up to date) and returns the
    /// router's generation for the deployment.
    ///
    /// # Errors
    ///
    /// A live shard's validation error, relayed as is
    /// ([`ServeError::IncompatibleArtifact`] when a redeploy changes
    /// dimensions); [`ServeError::Unavailable`] when no replica accepted.
    pub fn deploy(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        let bytes = artifact.to_bytes();
        let _writes = self.core.lock_writes();
        let (replicas, mut generation) = {
            let state = self.core.read();
            let previous = state.registry.get(name).map_or(0, |entry| entry.generation);
            (self.core.replicas_in(&state, name), previous + 1)
        };
        let mut acked = Vec::with_capacity(replicas.len());
        let mut detail = String::from("no replicas");
        for (index, member) in &replicas {
            match member.backend.put_artifact_bytes(name, &bytes) {
                Ok(reported) => {
                    acked.push(*index);
                    generation = generation.max(reported);
                }
                Err(ServeError::Remote(error)) => {
                    member.up.store(false, Ordering::SeqCst);
                    detail = error.to_string();
                }
                // A live shard rejected the artifact: every replica would.
                Err(error) => return Err(error),
            }
        }
        if acked.is_empty() {
            crate::obs::fleet_unavailable().inc();
            return Err(unavailable(name, detail));
        }
        let bytes = bytes.into();
        let entry = Entry {
            bytes,
            generation,
            acked,
        };
        self.core.write().registry.insert(name.to_string(), entry);
        Ok(generation)
    }

    /// Removes a deployment from its replicas and the registry; returns
    /// whether it existed.
    pub fn undeploy(&self, name: &str) -> bool {
        let _writes = self.core.lock_writes();
        let (existed, replicas) = {
            let mut state = self.core.write();
            let existed = state.registry.remove(name).is_some();
            (existed, self.core.replicas_in(&state, name))
        };
        self.core
            .ledger
            .lock()
            .expect("ledger lock never poisoned")
            .retain(|(n, _), _| n != name);
        if existed {
            for (_, member) in replicas {
                // Best effort: a down replica is simply never rehydrated.
                let _ = member.backend.remove_deployment(name);
            }
        }
        existed
    }

    /// Names of all deployments, sorted.
    #[must_use]
    pub fn deployments(&self) -> Vec<String> {
        let mut names: Vec<String> = self.core.read().registry.keys().cloned().collect();
        names.sort();
        names
    }

    /// Runs `pass` over the replica set of a registered deployment.  When
    /// no replica served and membership changed meanwhile, resolves the
    /// replicas again and runs `pass` once more.
    fn resolved<T>(
        &self,
        name: &str,
        pass: impl Fn(&Replicas) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let resolve = || {
            let state = self.core.read();
            if !state.registry.contains_key(name) {
                return Err(ServeError::UnknownDeployment(name.to_string()));
            }
            Ok((state.members.len(), self.core.replicas_in(&state, name)))
        };
        let (members, replicas) = resolve()?;
        let mut outcome = pass(&replicas);
        if matches!(outcome, Err(ServeError::Unavailable { .. })) {
            let (now, replicas) = resolve()?;
            if now != members {
                outcome = pass(&replicas);
            }
        }
        if matches!(outcome, Err(ServeError::Unavailable { .. })) {
            crate::obs::fleet_unavailable().inc();
        }
        outcome
    }

    /// Algorithm 3 for one state, served by the deployment's first live
    /// replica.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::decide_batch`].
    pub fn decide(&self, name: &str, state: &[f64]) -> Result<ShieldDecision, ServeError> {
        let mut decisions = self.decide_batch(name, &[state.to_vec()])?;
        Ok(decisions.pop().expect("one decision per state"))
    }

    /// Batched decide, served by the deployment's first live replica (the
    /// replica walk of the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDeployment`] for an unregistered name,
    /// [`ServeError::Unavailable`] when no replica serves, otherwise the
    /// serving replica's answer (as [`ShieldServer::decide_batch`]).
    pub fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        self.resolved(name, |replicas| {
            let mut detail = String::from("all replicas marked down");
            for (rank, (index, member)) in replicas.iter().enumerate() {
                if !member.up.load(Ordering::SeqCst) {
                    continue;
                }
                let shard = index.to_string();
                crate::obs::router_shard_requests().with(&shard).inc();
                match member.backend.decide_batch(name, states) {
                    Ok(decisions) => {
                        if rank > 0 {
                            crate::obs::fleet_failovers().inc();
                        }
                        return Ok(decisions);
                    }
                    Err(ServeError::Remote(error)) => {
                        member.up.store(false, Ordering::SeqCst);
                        detail = error.to_string();
                    }
                    // The shard lost a registered deployment (restarted
                    // empty, or the deployment just moved): fail over.
                    Err(ServeError::UnknownDeployment(_)) => {
                        detail = format!("shard {index} lost the deployment");
                    }
                    Err(error) => return Err(error),
                }
            }
            Err(unavailable(name, detail))
        })
    }

    /// A deployment's telemetry, summed over its replicas with the ledger
    /// standing in for replicas that do not answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDeployment`] for an unregistered name,
    /// [`ServeError::Unavailable`] when no replica answers or is cached.
    pub fn telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        self.resolved(name, |replicas| {
            // Live snapshots first, so the percentiles `sum_telemetry`
            // takes from the first part come from a replica that answered.
            let mut parts = Vec::with_capacity(replicas.len());
            let mut cached = Vec::new();
            for (index, member) in replicas {
                let live = member.up.load(Ordering::SeqCst);
                let live = live.then(|| member.backend.backend_telemetry(name).ok());
                let key = (name.to_string(), *index);
                let mut ledger = self.core.ledger.lock().expect("ledger lock never poisoned");
                match live.flatten() {
                    Some(snapshot) => {
                        ledger.insert(key, snapshot.clone());
                        parts.push(snapshot);
                    }
                    None => cached.extend(ledger.get(&key).cloned()),
                }
            }
            parts.append(&mut cached);
            if parts.is_empty() {
                return Err(unavailable(name, "no replica reachable or cached".into()));
            }
            Ok(sum_telemetry(name, &parts))
        })
    }

    /// Router-wide telemetry: each shard's per-deployment counters summed,
    /// plus the cross-shard totals (which equal the per-shard sums by
    /// construction — pinned by the router tests).
    pub fn aggregate_telemetry(&self) -> RouterTelemetry {
        let members = self.core.read().members.clone();
        let mut fleet = RouterTelemetry::default();
        for (index, member) in members.iter().enumerate() {
            let mut totals = ShardTelemetry {
                shard: index,
                ..ShardTelemetry::default()
            };
            for name in member.backend.deployment_names() {
                let Ok(telemetry) = member.backend.backend_telemetry(&name) else {
                    continue;
                };
                totals.deployments += 1;
                totals.requests += telemetry.requests;
                totals.decisions += telemetry.decisions;
                totals.interventions += telemetry.interventions;
                totals.redeploys += telemetry.redeploys;
            }
            fleet.deployments += totals.deployments;
            fleet.requests += totals.requests;
            fleet.decisions += totals.decisions;
            fleet.interventions += totals.interventions;
            fleet.redeploys += totals.redeploys;
            fleet.per_shard.push(totals);
        }
        fleet
    }

    /// Appends `member` as the next shard.  Every deployment whose replica
    /// set now contains it is pushed to it from canonical bytes, then
    /// undeployed from the shards that left its replica set.  Returns those
    /// deployments' names, sorted.
    ///
    /// Traffic continues throughout: the new shard holds its deployments
    /// before it becomes visible, the old copies go only after, and a
    /// request that resolved its replicas before the change walks again
    /// under the new membership.  A deployment the new shard rejects stays
    /// where it was until a probe cycle pushes it.
    pub fn add_member(&self, member: Arc<dyn ShieldBackend>) -> Vec<String> {
        let _writes = self.core.lock_writes();
        let new = self.shard_count();
        let member = Member::new(member);
        let mut moved = self.core.push_stale(new, &member, &[]);
        crate::obs::router_rehydrations().add(moved.len() as u64);
        let members = {
            let mut state = self.core.write();
            state.members.push(member);
            state.members.clone()
        };
        // A shard that left a replica set never rejoins it (members are
        // only appended), so its stale acknowledgement is harmless.
        for name in &moved {
            let after = rendezvous_rank(name, new + 1, self.core.replicas);
            for index in rendezvous_rank(name, new, self.core.replicas) {
                if !after.contains(&index) {
                    let _ = members[index].backend.remove_deployment(name);
                }
            }
        }
        moved.sort();
        moved
    }

    /// Stops the background prober (if any).  Called automatically on
    /// drop; explicit shutdown makes teardown deterministic in tests.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.prober.take() {
            drop(stop);
            let _ = handle.join();
        }
    }
}

impl ShieldBackend for ShardRouter {
    fn put_artifact(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        self.deploy(name, artifact)
    }

    fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        ShardRouter::decide_batch(self, name, states)
    }

    fn backend_telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        self.telemetry(name)
    }

    fn deployment_names(&self) -> Vec<String> {
        self.deployments()
    }

    fn deployment_generations(&self) -> Vec<(String, u64)> {
        let state = self.core.read();
        let generation = |(name, entry): (&String, &Entry)| (name.clone(), entry.generation);
        let mut pairs: Vec<(String, u64)> = state.registry.iter().map(generation).collect();
        pairs.sort();
        pairs
    }

    fn remove_deployment(&self, name: &str) -> Result<bool, ServeError> {
        Ok(self.undeploy(name))
    }
}

/// Sums replica telemetry into one snapshot: counters add, generation is
/// the max, the intervention rate is recomputed from the summed counters,
/// and latency percentiles come from the first part (they are not
/// summable; every replica meters the same decide path).  Callers put the
/// parts fetched live first, so a dead replica's ledger snapshot never
/// freezes the percentiles while another replica serves.  One part is
/// returned as is.
fn sum_telemetry(name: &str, parts: &[DeploymentTelemetry]) -> DeploymentTelemetry {
    if let [only] = parts {
        return only.clone();
    }
    let mut total = DeploymentTelemetry {
        deployment: name.to_string(),
        generation: 0,
        requests: 0,
        decisions: 0,
        interventions: 0,
        redeploys: 0,
        intervention_rate: 0.0,
        p50_latency: parts[0].p50_latency,
        p99_latency: parts[0].p99_latency,
    };
    for part in parts {
        total.generation = total.generation.max(part.generation);
        total.requests += part.requests;
        total.decisions += part.decisions;
        total.interventions += part.interventions;
        total.redeploys += part.redeploys;
    }
    if total.decisions > 0 {
        total.intervention_rate = total.interventions as f64 / total.decisions as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::toy_artifact;

    fn shard_for(name: &str, shards: usize) -> usize {
        rendezvous_rank(name, shards, 1)[0]
    }

    #[test]
    fn placements_are_stable_and_spread() {
        let mut counts = vec![0usize; 8];
        for i in 0..400 {
            let name = format!("deployment-{i}");
            let a = shard_for(&name, 8);
            let b = shard_for(&name, 8);
            assert_eq!(a, b, "placement is deterministic");
            counts[a] += 1;
        }
        // A crude spread check: no shard is empty, none hoards more than
        // half the keys.
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(counts.iter().all(|&c| c < 200), "{counts:?}");
    }

    #[test]
    fn adding_a_shard_moves_only_keys_bound_for_it() {
        let names: Vec<String> = (0..300).map(|i| format!("d{i}")).collect();
        for n in 1..8usize {
            let mut moved = 0;
            for name in &names {
                let before = shard_for(name, n);
                let after = shard_for(name, n + 1);
                if before != after {
                    assert_eq!(after, n, "moves only target the new shard");
                    moved += 1;
                }
            }
            // Expectation is names/(n+1); accept a generous band.
            let expected = names.len() / (n + 1);
            assert!(
                moved >= expected / 3 && moved <= expected * 3,
                "n={n}: moved {moved}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn router_routes_and_rehydrates_on_shard_addition() {
        let router = ShardRouter::new(3, 1);
        let names: Vec<String> = (0..12).map(|i| format!("toy-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            router.deploy(name, toy_artifact(i as u64)).unwrap();
        }
        assert_eq!(router.deployments(), {
            let mut sorted = names.clone();
            sorted.sort();
            sorted
        });
        // Decisions are identical to a direct server over the same bytes.
        let mut shard_of: HashMap<String, usize> = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            shard_of.insert(name.clone(), router.replicas_for(name)[0]);
            let direct = ShieldServer::with_workers(1);
            direct.deploy(name, toy_artifact(i as u64)).unwrap();
            for x in [-0.6, 0.0, 0.45] {
                assert_eq!(
                    router.decide(name, &[x]).unwrap(),
                    direct.decide(name, &[x]).unwrap()
                );
            }
        }
        // Expected movers: exactly the names whose 4-shard placement is
        // the new shard 3.
        let expected_moved: Vec<String> = {
            let mut moved: Vec<String> = names
                .iter()
                .filter(|name| shard_for(name, 4) == 3)
                .cloned()
                .collect();
            moved.sort();
            moved
        };
        let moved = router.add_member(Arc::new(ShieldServer::with_workers(1)));
        assert_eq!(moved, expected_moved);
        assert_eq!(router.shard_count(), 4);
        // Unmoved deployments kept their shard; moved ones rehydrated and
        // still answer identically.
        for (i, name) in names.iter().enumerate() {
            if moved.contains(name) {
                assert_eq!(router.replicas_for(name), [3]);
            } else {
                assert_eq!(router.replicas_for(name), [shard_of[name]]);
            }
            let direct = ShieldServer::with_workers(1);
            direct.deploy(name, toy_artifact(i as u64)).unwrap();
            assert_eq!(
                router.decide(name, &[0.2]).unwrap(),
                direct.decide(name, &[0.2]).unwrap()
            );
        }
    }

    #[test]
    fn add_member_at_two_replicas_moves_exactly_the_gained_sets() {
        let servers: Vec<Arc<ShieldServer>> = (0..4)
            .map(|_| Arc::new(ShieldServer::with_workers(1)))
            .collect();
        let members = servers[..3]
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn ShieldBackend>)
            .collect();
        let router = ShardRouter::from_members(members, 2, None);
        let names: Vec<String> = (0..16).map(|i| format!("toy-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(router.deploy(name, toy_artifact(i as u64)).unwrap(), 1);
        }
        let holders = |name: &str| -> Vec<usize> {
            (0..router.shard_count())
                .filter(|&i| servers[i].deployments().iter().any(|n| n == name))
                .collect()
        };
        for name in &names {
            let mut expected = rendezvous_rank(name, 3, 2);
            expected.sort_unstable();
            assert_eq!(holders(name), expected, "{name} lives on its replica set");
        }

        let gained: Vec<String> = names
            .iter()
            .filter(|name| rendezvous_rank(name, 4, 2).contains(&3))
            .cloned()
            .collect();
        assert!(!gained.is_empty() && gained.len() < names.len());
        let mut expected_moved = gained.clone();
        expected_moved.sort();
        let moved = router.add_member(Arc::clone(&servers[3]) as Arc<dyn ShieldBackend>);
        assert_eq!(moved, expected_moved);
        let generations = router.deployment_generations();
        assert!(generations.iter().all(|(_, generation)| *generation == 1));
        // Only the gained deployments were pushed to the new member.
        assert_eq!(servers[3].deployments(), expected_moved);
        // Every member that left a replica set no longer lists the name,
        // and every other copy stayed put.
        for (i, name) in names.iter().enumerate() {
            let mut expected = rendezvous_rank(name, 4, 2);
            expected.sort_unstable();
            assert_eq!(holders(name), expected, "{name} after the add");
            let direct = ShieldServer::with_workers(1);
            direct.deploy(name, toy_artifact(i as u64)).unwrap();
            let states: Vec<Vec<f64>> = (0..9).map(|k| vec![k as f64 / 5.0 - 0.8]).collect();
            let routed = router.decide_batch(name, &states).unwrap();
            let reference = direct.decide_batch(name, &states).unwrap();
            for (a, b) in routed.iter().zip(&reference) {
                assert_eq!(a.intervened, b.intervened);
                let bits =
                    |d: &ShieldDecision| d.action.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{name}: decisions bit-identical");
            }
        }
    }

    #[test]
    fn aggregate_telemetry_equals_per_shard_sums() {
        let router = ShardRouter::new(3, 1);
        let names: Vec<String> = (0..6).map(|i| format!("toy-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            router.deploy(name, toy_artifact(i as u64)).unwrap();
        }
        let states: Vec<Vec<f64>> = (0..50).map(|i| vec![(i as f64 / 25.0) - 1.0]).collect();
        for (i, name) in names.iter().enumerate() {
            // Different traffic per deployment so sums are distinguishable.
            router.decide_batch(name, &states[..10 + 5 * i]).unwrap();
            router.decide(name, &[0.1]).unwrap();
        }
        let fleet = router.aggregate_telemetry();
        assert_eq!(fleet.per_shard.len(), 3);
        // The fleet totals equal both the per-shard sums and the
        // per-deployment sums.
        let mut requests = 0;
        let mut decisions = 0;
        let mut interventions = 0;
        for name in &names {
            let t = router.telemetry(name).unwrap();
            requests += t.requests;
            decisions += t.decisions;
            interventions += t.interventions;
        }
        assert_eq!(
            fleet.requests,
            fleet.per_shard.iter().map(|s| s.requests).sum::<u64>()
        );
        assert_eq!(fleet.requests, requests);
        assert_eq!(fleet.decisions, decisions);
        assert_eq!(fleet.interventions, interventions);
        assert_eq!(fleet.deployments, names.len() as u64);
        assert_eq!(fleet.requests, 2 * names.len() as u64);
        assert_eq!(
            fleet.decisions,
            names
                .iter()
                .enumerate()
                .map(|(i, _)| 10 + 5 * i as u64 + 1)
                .sum::<u64>()
        );
    }

    #[test]
    fn undeploy_and_redeploy_through_the_router() {
        let router = ShardRouter::new(2, 1);
        assert_eq!(router.deploy("toy", toy_artifact(1)).unwrap(), 1);
        // PUT semantics: a second deploy of the same name is a hot redeploy.
        assert_eq!(router.deploy("toy", toy_artifact(2)).unwrap(), 2);
        assert!(router.undeploy("toy"));
        assert!(!router.undeploy("toy"));
        assert!(matches!(
            router.decide("toy", &[0.0]),
            Err(ServeError::UnknownDeployment(_))
        ));
    }

    #[test]
    fn deploy_bytes_validates_the_checksum() {
        let router = ShardRouter::new(2, 1);
        let mut bytes = toy_artifact(3).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            router.put_artifact_bytes("toy", &bytes),
            Err(ServeError::Artifact(_))
        ));
        assert!(router.deployments().is_empty());
    }

    fn telemetry(requests: u64, decisions: u64, interventions: u64) -> DeploymentTelemetry {
        DeploymentTelemetry {
            deployment: "pend".to_string(),
            generation: 1,
            requests,
            decisions,
            interventions,
            redeploys: 0,
            intervention_rate: if decisions > 0 {
                interventions as f64 / decisions as f64
            } else {
                0.0
            },
            p50_latency: Duration::from_micros(10),
            p99_latency: Duration::from_micros(50),
        }
    }

    #[test]
    fn telemetry_sums_counters_and_recomputes_rate() {
        let a = telemetry(10, 100, 5);
        let mut b = telemetry(4, 60, 11);
        b.generation = 3;
        let total = sum_telemetry("pend", &[a, b]);
        assert_eq!(total.requests, 14);
        assert_eq!(total.decisions, 160);
        assert_eq!(total.interventions, 16);
        assert_eq!(total.generation, 3);
        assert!((total.intervention_rate - 0.1).abs() < 1e-12);
        assert_eq!(total.p50_latency, Duration::from_micros(10));
    }

    #[test]
    fn replica_sets_are_rank_stable_and_distinct() {
        for name in ["pendulum", "cartpole", "satellite", "duffing"] {
            let ranked = rendezvous_rank(name, 4, 2);
            assert_eq!(ranked.len(), 2);
            assert_ne!(ranked[0], ranked[1]);
            assert_eq!(ranked[0], shard_for(name, 4));
        }
    }
}
