//! An executable specification of virtual snooping over Token Coherence.
//!
//! This is the oracle the simulator is checked against, not a second
//! simulator: it is written for reading, shares no code with the
//! simulator, and is only ever a dev-dependency. It states the machine as
//! the paper does:
//!
//! * per-core L1 and L2 caches of plain sets, each set in true LRU order;
//! * Token Coherence: every block has N tokens, one of them the owner
//!   token, and a dirty bit rides with ownership; a read needs one token,
//!   a write needs all N; memory holds a block's tokens until a cache
//!   takes them, and a failed attempt returns what it collected;
//! * one vCPU map per VM: a vCPU's new core joins its VM's map at once,
//!   and under the counter policies a core leaves the map as soon as the
//!   VM no longer runs there and its residence count (the VM's lines in
//!   that L2) falls below the threshold;
//! * the destination rules: hypervisor, dom0 and read-write shared pages
//!   broadcast, VM-private pages go to the VM's map, and content-shared
//!   pages go where the [`Content`] policy routes them. Two filtered
//!   attempts precede a broadcast.
//!
//! Timing and traffic are outside it.

use std::collections::{BTreeMap, BTreeSet};

/// Whose data a line holds: the tag residence counters count by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tag {
    /// A guest VM, by index.
    Vm(usize),
    /// The hypervisor or dom0.
    Host,
}

/// Who issues an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agent {
    /// A vCPU of the VM with this index.
    Guest(usize),
    /// The hypervisor or dom0.
    Host,
}

impl Agent {
    fn tag(self) -> Tag {
        match self {
            Agent::Guest(vm) => Tag::Vm(vm),
            Agent::Host => Tag::Host,
        }
    }
}

/// A cached copy of a block: its tokens, whether one is the owner token,
/// and whether the data differs from memory's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Line {
    /// Block address.
    pub block: u64,
    /// Tokens held (at least one).
    pub tokens: u32,
    /// Holds the owner token.
    pub owner: bool,
    /// Data is newer than memory's.
    pub dirty: bool,
    /// Who brought the line in.
    pub tag: Tag,
}

/// A set-associative cache whose sets list their lines from least to
/// most recently used.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    ways: usize,
}

impl Cache {
    /// A cache of `lines` lines in sets of `ways`.
    pub fn new(lines: usize, ways: usize) -> Self {
        Cache {
            sets: vec![Vec::new(); lines / ways],
            ways,
        }
    }

    fn index(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// The line holding `block`, if any.
    pub fn get(&self, block: u64) -> Option<&Line> {
        self.sets[self.index(block)]
            .iter()
            .find(|l| l.block == block)
    }

    fn get_mut(&mut self, block: u64) -> Option<&mut Line> {
        let i = self.index(block);
        self.sets[i].iter_mut().find(|l| l.block == block)
    }

    /// Looks `block` up as a core's access does: a hit becomes the most
    /// recently used line of its set.
    fn touch(&mut self, block: u64) -> Option<&mut Line> {
        let line = self.remove(block)?;
        let i = self.index(block);
        self.sets[i].push(line);
        self.sets[i].last_mut()
    }

    /// Installs `line` as the most recently used line of its set, in place
    /// of the block's old line if there is one, and returns the least
    /// recently used line it displaced from a full set.
    fn insert(&mut self, line: Line) -> Option<Line> {
        self.remove(line.block);
        let ways = self.ways;
        let i = self.index(line.block);
        let set = &mut self.sets[i];
        let victim = (set.len() == ways).then(|| set.remove(0));
        set.push(line);
        victim
    }

    /// Drops the line holding `block` and returns it.
    fn remove(&mut self, block: u64) -> Option<Line> {
        let set = self.index(block);
        let way = self.sets[set].iter().position(|l| l.block == block)?;
        Some(self.sets[set].remove(way))
    }

    /// Every line, set by set.
    pub fn lines(&self) -> impl Iterator<Item = &Line> {
        self.sets.iter().flatten()
    }
}

/// Where a transaction's data came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// The cache of this core.
    Cache(usize),
    /// Memory.
    Memory,
}

/// What one transaction attempt did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// The requester got the tokens it needed.
    pub success: bool,
    /// Who sent the data, on success (a write that already held the data
    /// gets none).
    pub source: Option<Source>,
    /// Cores whose line for the block went away, ascending.
    pub invalidated: Vec<usize>,
    /// Cores that gave a write tokens but no data, ascending.
    pub token_repliers: Vec<usize>,
    /// The line the fill displaced from the requester's cache.
    pub evicted: Option<Line>,
    /// That line went back to memory dirty.
    pub evicted_dirty: bool,
    /// A failed write returned the tokens it collected to memory.
    pub bounced: bool,
}

/// Token Coherence over one cache per core plus memory.
#[derive(Clone, Debug)]
pub struct Tokens {
    total: u32,
    caches: Vec<Cache>,
    /// `(tokens, owner)` at memory for every block not wholly at home.
    memory: BTreeMap<u64, (u32, bool)>,
}

impl Tokens {
    /// `total` tokens per block over `caches`, all of them at memory.
    pub fn new(total: u32, caches: Vec<Cache>) -> Self {
        Tokens {
            total,
            caches,
            memory: BTreeMap::new(),
        }
    }

    /// Core `core`'s cache.
    pub fn cache(&self, core: usize) -> &Cache {
        &self.caches[core]
    }

    /// `(block, tokens, owner)` at memory for every block some cache
    /// holds a token of, ascending by block.
    pub fn memory(&self) -> Vec<(u64, u32, bool)> {
        self.memory.iter().map(|(&b, &(t, o))| (b, t, o)).collect()
    }

    fn at_memory(&self, block: u64) -> (u32, bool) {
        self.memory
            .get(&block)
            .copied()
            .unwrap_or((self.total, true))
    }

    fn set_memory(&mut self, block: u64, held: (u32, bool)) {
        if held == (self.total, true) {
            self.memory.remove(&block);
        } else {
            self.memory.insert(block, held);
        }
    }

    /// Takes up to `n` tokens from memory. Memory hands out its plain
    /// tokens first: the owner token leaves with the last one. Returns
    /// `(tokens taken, owner taken)`.
    fn take(&mut self, block: u64, n: u32) -> (u32, bool) {
        let (tokens, owner) = self.at_memory(block);
        let taken = tokens.min(n);
        let owner_taken = owner && taken == tokens && taken > 0;
        self.set_memory(block, (tokens - taken, owner && !owner_taken));
        (taken, owner_taken)
    }

    fn give_back(&mut self, block: u64, tokens: u32, owner: bool) {
        let (home, home_owner) = self.at_memory(block);
        assert!(home + tokens <= self.total, "token created");
        assert!(!(home_owner && owner), "second owner token");
        self.set_memory(block, (home + tokens, home_owner || owner));
    }

    /// Puts `line` in `core`'s cache; a displaced line returns its
    /// tokens to memory, written back if it owned dirty data.
    fn fill(&mut self, core: usize, line: Line, out: &mut Outcome) {
        out.success = true;
        if let Some(victim) = self.caches[core].insert(line) {
            self.give_back(victim.block, victim.tokens, victim.owner);
            out.evicted_dirty = victim.owner && victim.dirty;
            out.evicted = Some(victim);
        }
    }

    /// A read (GETS) attempt by `core`, which does not hold the block,
    /// snooping `dests` (ascending) and memory if `memory`.
    ///
    /// The owner token's holder answers. On a `clean` read of a
    /// content-shared page every copy is clean, so failing the owner the
    /// lowest snooped holder answers, and memory answers while it holds
    /// any token. A holder keeps its line if it has a token to spare and
    /// otherwise hands the whole line over. Memory hands a strict reader
    /// all its tokens and a clean reader one.
    pub fn read(
        &mut self,
        core: usize,
        dests: &[usize],
        block: u64,
        memory: bool,
        tag: Tag,
        clean: bool,
    ) -> Outcome {
        assert!(
            self.caches[core].get(block).is_none(),
            "a read miss holds no copy"
        );
        let mut out = Outcome::default();
        let line_at = |d: &usize| self.caches[*d].get(block);
        let owner_at = dests.iter().find(|d| line_at(d).is_some_and(|l| l.owner));
        let holder_at = dests.iter().find(|d| line_at(d).is_some());
        let provider = owner_at.or(if clean { holder_at } else { None }).copied();
        let (tokens, owner, dirty) = if let Some(d) = provider {
            out.source = Some(Source::Cache(d));
            let line = self.caches[d]
                .get_mut(block)
                .expect("provider holds the block");
            if line.tokens > 1 {
                line.tokens -= 1;
                (1, false, false)
            } else {
                let line = self.caches[d]
                    .remove(block)
                    .expect("provider holds the block");
                out.invalidated.push(d);
                (line.tokens, line.owner, line.dirty)
            }
        } else {
            let (home, home_owner) = self.at_memory(block);
            if !memory || !(if clean { home > 0 } else { home_owner }) {
                return out;
            }
            out.source = Some(Source::Memory);
            let (taken, owner) = self.take(block, if clean { 1 } else { self.total });
            (taken, owner, false)
        };
        let line = Line {
            block,
            tokens,
            owner,
            dirty,
            tag,
        };
        self.fill(core, line, &mut out);
        out
    }

    /// A write (GETX) attempt by `core` snooping `dests` (ascending) and
    /// memory if `memory`: every snooped copy is invalidated and its
    /// tokens collected. The owner's holder sends the data unless the
    /// requester already has it. With all N tokens the requester holds
    /// the block dirty; short of them, what it collected goes back to
    /// memory.
    pub fn write(
        &mut self,
        core: usize,
        dests: &[usize],
        block: u64,
        memory: bool,
        tag: Tag,
    ) -> Outcome {
        let mut out = Outcome::default();
        let (have, had_data) = match self.caches[core].get(block) {
            Some(l) => (l.tokens, true),
            None => (0, false),
        };
        let (mut gained, mut owner) = (0, false);
        for &d in dests {
            let Some(line) = self.caches[d].remove(block) else {
                continue;
            };
            gained += line.tokens;
            owner |= line.owner;
            out.invalidated.push(d);
            if line.owner && !had_data {
                out.source = Some(Source::Cache(d));
            } else {
                out.token_repliers.push(d);
            }
        }
        if memory {
            let (taken, owner_taken) = self.take(block, self.total);
            gained += taken;
            owner |= owner_taken;
            if owner_taken && out.source.is_none() && !had_data {
                out.source = Some(Source::Memory);
            }
        }
        if have + gained < self.total {
            out.source = None;
            out.bounced = gained > 0;
            self.give_back(block, gained, owner);
            return out;
        }
        self.caches[core].remove(block);
        let line = Line {
            block,
            tokens: self.total,
            owner: true,
            dirty: true,
            tag,
        };
        self.fill(core, line, &mut out);
        out
    }
}

/// Who the filter snoops: the baseline broadcasts everything; virtual
/// snooping filters by vCPU map and, under `Counter`, removes cores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Token Coherence's broadcast baseline.
    Broadcast,
    /// Virtual snooping whose maps only grow.
    Base,
    /// Virtual snooping that removes a core from a VM's map once the VM
    /// left it and fewer than `threshold` of its lines remain there.
    Counter {
        /// The residence count below which a core is removed (1 for the
        /// paper's counter policy, 10 for counter-threshold).
        threshold: usize,
    },
}

/// Where a guest's read or write of a content-shared page goes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Content {
    /// To every core, like read-write shared pages.
    Broadcast,
    /// To memory alone.
    MemoryDirect,
    /// To the VM's own map.
    IntraVm,
    /// To the VM's map and its friend VM's.
    FriendVm,
}

/// How the hypervisor classifies a page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Page {
    /// Used by one VM.
    Private,
    /// Writable and shared (with the host or between VMs).
    RwShared,
    /// Read-only and shared by content across VMs.
    ContentShared,
}

/// A vCPU: its VM and its index within the VM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vcpu {
    /// VM index.
    pub vm: usize,
    /// vCPU index within the VM.
    pub index: usize,
}

/// What happens to the machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// `agent` on `core` reads or writes `block` of a page of kind `page`.
    Access {
        /// Issuing core.
        core: usize,
        /// Issuing agent.
        agent: Agent,
        /// Block address.
        block: u64,
        /// A store.
        write: bool,
        /// The page's sharing kind.
        page: Page,
    },
    /// Two vCPUs exchange cores.
    Swap(Vcpu, Vcpu),
}

/// The machine's shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Cores (one cache hierarchy and one token per core).
    pub cores: usize,
    /// VMs.
    pub vms: usize,
    /// vCPUs per VM, placed in order on the first cores.
    pub vcpus_per_vm: usize,
    /// L1 lines and ways.
    pub l1: (usize, usize),
    /// L2 lines and ways.
    pub l2: (usize, usize),
}

/// The whole machine under one filter policy.
#[derive(Clone, Debug)]
pub struct Machine {
    policy: Policy,
    content: Content,
    friends: Vec<Option<usize>>,
    l1: Vec<Cache>,
    /// The L2s and memory.
    tokens: Tokens,
    /// Each VM's vCPU map.
    maps: Vec<BTreeSet<usize>>,
    /// The vCPU each core runs.
    placement: Vec<Option<Vcpu>>,
    /// Tag lookups so far: every snooped cache plus the requester's own,
    /// per attempt.
    pub snoops: u64,
    /// The caches the latest attempt snooped, ascending.
    pub last_dests: Vec<usize>,
}

impl Machine {
    /// A cold machine with vCPUs placed VM by VM on the first cores and
    /// each map holding its VM's cores. `friends[vm]` is the VM whose
    /// map a friend-VM content access also snoops.
    pub fn new(
        shape: Shape,
        policy: Policy,
        content: Content,
        friends: Vec<Option<usize>>,
    ) -> Self {
        let mut placement = vec![None; shape.cores];
        let mut maps = vec![BTreeSet::new(); shape.vms];
        for (vm, map) in maps.iter_mut().enumerate() {
            for index in 0..shape.vcpus_per_vm {
                let core = vm * shape.vcpus_per_vm + index;
                placement[core] = Some(Vcpu { vm, index });
                map.insert(core);
            }
        }
        let caches = |(lines, ways)| vec![Cache::new(lines, ways); shape.cores];
        Machine {
            policy,
            content,
            friends,
            l1: caches(shape.l1),
            tokens: Tokens::new(shape.cores as u32, caches(shape.l2)),
            maps,
            placement,
            snoops: 0,
            last_dests: Vec::new(),
        }
    }

    /// The vCPU running on `core`.
    pub fn vcpu_on(&self, core: usize) -> Option<Vcpu> {
        self.placement[core]
    }

    /// `core`'s L1.
    pub fn l1(&self, core: usize) -> &Cache {
        &self.l1[core]
    }

    /// The L2s and memory.
    pub fn tokens(&self) -> &Tokens {
        &self.tokens
    }

    /// The cores in `vm`'s map, ascending.
    pub fn map(&self, vm: usize) -> impl Iterator<Item = usize> + '_ {
        self.maps[vm].iter().copied()
    }

    /// Applies one event.
    pub fn apply(&mut self, event: Event) {
        match event {
            Event::Access {
                core,
                agent,
                block,
                write,
                page,
            } => self.access(core, agent, block, write, page),
            Event::Swap(a, b) => {
                let core_of = |v| self.placement.iter().position(|&p| p == Some(v));
                let (ca, cb) = (core_of(a).expect("placed"), core_of(b).expect("placed"));
                self.placement.swap(ca, cb);
                self.maps[a.vm].insert(cb);
                self.maps[b.vm].insert(ca);
                self.remove_cores();
            }
        }
    }

    fn access(&mut self, core: usize, agent: Agent, block: u64, write: bool, page: Page) {
        let total = self.tokens.total;
        if self.l1[core].touch(block).is_some() {
            if !write {
                return;
            }
            // A store hitting L1 completes there only with all tokens.
            if let Some(line) = self.tokens.caches[core].get_mut(block) {
                if line.tokens == total {
                    line.dirty = true;
                    return;
                }
            }
            self.l1[core].remove(block);
        }
        if let Some(line) = self.tokens.caches[core].touch(block) {
            // Any copy can be read; a store needs every token.
            if !write || line.tokens == total {
                line.dirty |= write;
                return self.fill_l1(core, block, agent);
            }
        }
        self.transaction(core, agent, block, write, page);
    }

    fn fill_l1(&mut self, core: usize, block: u64, agent: Agent) {
        let copy = Line {
            block,
            tokens: 1,
            owner: false,
            dirty: false,
            tag: agent.tag(),
        };
        self.l1[core].insert(copy);
    }

    /// Two filtered attempts, then a broadcast, which always succeeds:
    /// it reaches every token.
    fn transaction(&mut self, core: usize, agent: Agent, block: u64, write: bool, page: Page) {
        let clean = page == Page::ContentShared
            && matches!(agent, Agent::Guest(_))
            && self.policy != Policy::Broadcast
            && self.content != Content::Broadcast;
        for attempt in 0..3 {
            let dests = if attempt < 2 {
                self.destinations(core, agent, page)
            } else {
                self.everyone_but(core)
            };
            self.snoops += dests.len() as u64 + 1;
            let out = if write {
                self.tokens.write(core, &dests, block, true, agent.tag())
            } else {
                self.tokens
                    .read(core, &dests, block, true, agent.tag(), clean)
            };
            self.last_dests = dests;
            // Inclusion: an L2 line's L1 copy goes with it.
            for &d in &out.invalidated {
                self.l1[d].remove(block);
            }
            if let Some(victim) = out.evicted {
                self.l1[core].remove(victim.block);
            }
            self.remove_cores();
            if out.success {
                return self.fill_l1(core, block, agent);
            }
        }
        panic!("a broadcast with memory cannot fail");
    }

    fn everyone_but(&self, core: usize) -> Vec<usize> {
        (0..self.placement.len()).filter(|&d| d != core).collect()
    }

    /// The caches a filtered attempt snoops (memory always hears it).
    fn destinations(&self, core: usize, agent: Agent, page: Page) -> Vec<usize> {
        let Agent::Guest(vm) = agent else {
            return self.everyone_but(core);
        };
        if self.policy == Policy::Broadcast {
            return self.everyone_but(core);
        }
        assert!(
            self.maps[vm].contains(&core),
            "a core running a VM is in its map"
        );
        let domain = match (page, self.content) {
            (Page::RwShared, _) | (Page::ContentShared, Content::Broadcast) => {
                return self.everyone_but(core)
            }
            (Page::ContentShared, Content::MemoryDirect) => BTreeSet::new(),
            (Page::Private, _) | (Page::ContentShared, Content::IntraVm) => self.maps[vm].clone(),
            (Page::ContentShared, Content::FriendVm) => match self.friends[vm] {
                Some(f) => &self.maps[vm] | &self.maps[f],
                None => self.maps[vm].clone(),
            },
        };
        domain.into_iter().filter(|&d| d != core).collect()
    }

    /// Under `Counter`, drops every core from every map it no longer
    /// belongs in: the VM does not run there and fewer than the threshold
    /// of its lines remain in that L2.
    fn remove_cores(&mut self) {
        let Policy::Counter { threshold } = self.policy else {
            return;
        };
        for (core, running) in self.placement.iter().enumerate() {
            let cache = &self.tokens.caches[core];
            for (vm, map) in self.maps.iter_mut().enumerate() {
                let resident = cache.lines().filter(|l| l.tag == Tag::Vm(vm)).count();
                if map.contains(&core) && running.is_none_or(|v| v.vm != vm) && resident < threshold
                {
                    map.remove(&core);
                }
            }
        }
    }
}
