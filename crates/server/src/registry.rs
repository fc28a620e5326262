//! Per-tenant engine registry with warm hot-swap.
//!
//! Each tenant is one schema (a [`Database`]) served by one [`SpeakQl`]
//! engine. Every engine in a registry shares a single [`SkeletonCache`]:
//! entries are keyed by the structure index's
//! [`generation`](speakql_index::StructureIndex::generation), which is
//! derived from what a search reads, so tenants whose indexes return the
//! same hits warm each other's structure searches — however each copy was
//! built, loaded, or re-registered — while tenants over indexes that answer
//! differently can never replay each other's hits.
//!
//! Registration takes `&self`: the tenant map lives behind an `RwLock`, so
//! a catalog change can hot-swap one tenant's engine (say, to an index a
//! [`speakql_index::IndexDelta`] produced) while the server keeps taking
//! requests. The swap is deliberately *warm*:
//!
//! - The shared cache is never cleared. The old engine's entries stay
//!   keyed under the old generation and simply stop being consulted (LRU
//!   ages them out); every other tenant's warm entries — including entries
//!   for segments the delta never touched on *other* tenants sharing the
//!   old index — keep hitting.
//! - Re-registering a tenant over the database it already serves and an
//!   index with the generation it already serves is a **no-op**
//!   ([`Registration::Unchanged`]): the existing engine, its warm state,
//!   and its `Arc` identity are all kept. Content derivation makes this the
//!   common restart/reconcile case — reloading the same image bytes yields
//!   the same generation. Equal generations mean equal hits, id for id, but
//!   not equal placeholder records, which the segments do not hold: an
//!   index whose structures differ only in placeholders at the same ids
//!   counts as unchanged. No index delta makes such a pair, since every
//!   addition gets a fresh id. A changed database (a catalog update: a row
//!   added, a table reshaped) swaps the engine even over an unchanged
//!   index, because the engine's phonetic catalog is built from the rows.
//! - An index-only swap (same database, new generation — an index delta)
//!   shares the old engine's phonetic catalog instead of rebuilding it, so
//!   the swap costs the engine, not the rows.
//!
//! Request-path lookups clone the tenant's `Arc<SpeakQl>` under a read
//! lock held for the duration of one `HashMap` probe; the lock is
//! uncontended except during the (rare) swaps.

use speakql_core::{PhoneticCatalog, Recorder, SkeletonCache, SpeakQl, SpeakQlConfig};
use speakql_db::Database;
use speakql_index::StructureIndex;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What [`TenantRegistry::register`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registration {
    /// The tenant was new; a fresh engine now serves it.
    Inserted,
    /// The tenant existed and its database or its index's generation
    /// differs: a fresh engine replaced the old one (in-flight requests
    /// holding the old `Arc` finish against the old arena; the shared cache
    /// keeps every other tenant warm).
    Swapped,
    /// The tenant already serves this exact database and an index with this
    /// exact generation — the existing engine and all of its warm state were
    /// kept, and the supplied index was dropped.
    Unchanged,
}

/// One registered tenant: its engine and the database the engine's catalog
/// was built from (kept to tell a catalog update from a no-op).
struct Tenant {
    engine: Arc<SpeakQl>,
    db: Database,
}

/// A tenant → engine map over one shared skeleton cache and one shared
/// metrics recorder, supporting warm in-place engine swaps.
pub struct TenantRegistry {
    tenants: RwLock<HashMap<String, Tenant>>,
    cache: Arc<SkeletonCache>,
    recorder: Recorder,
}

impl TenantRegistry {
    /// An empty registry whose engines will share a skeleton cache of
    /// `cache_capacity` entries (minimum 1; the shared cache always exists —
    /// a server that wants caching off can set the capacity to 1 and let
    /// every entry evict immediately) and, when `observe` is true, record
    /// all pipeline + server metrics into one aggregated recorder.
    pub fn new(cache_capacity: usize, observe: bool) -> TenantRegistry {
        TenantRegistry {
            tenants: RwLock::new(HashMap::new()),
            cache: Arc::new(SkeletonCache::new(cache_capacity.max(1))),
            recorder: Recorder::new(observe),
        }
    }

    /// Register `name` as an engine over `db` and `index`, sharing the
    /// registry's skeleton cache and recorder. Re-registering a name over
    /// the database and index generation the tenant already serves is a
    /// no-op that keeps the existing engine warm
    /// ([`Registration::Unchanged`]); a different database or generation
    /// swaps the engine ([`Registration::Swapped`]) without touching the
    /// shared cache. A swap over the database the tenant already serves
    /// reuses its engine's phonetic catalog.
    pub fn register(
        &self,
        name: &str,
        db: &Database,
        index: Arc<StructureIndex>,
        config: SpeakQlConfig,
    ) -> Registration {
        let incoming = index.generation();
        let same_db_catalog = {
            let tenants = self.read();
            match tenants.get(name) {
                Some(existing) if existing.db == *db => {
                    if existing.engine.index().generation() == incoming {
                        return Registration::Unchanged;
                    }
                    Some(Arc::clone(existing.engine.catalog()))
                }
                _ => None,
            }
        };
        // The engine is built outside any lock — catalog construction over
        // a large schema is milliseconds, and the request path must not
        // stall behind it.
        let catalog = same_db_catalog.unwrap_or_else(|| Arc::new(PhoneticCatalog::build(db)));
        let engine = Arc::new(SpeakQl::with_shared_catalog(
            catalog,
            index,
            Arc::clone(&self.cache),
            self.recorder.clone(),
            config,
        ));
        let tenant = Tenant {
            engine,
            db: db.clone(),
        };
        let mut tenants = self.write();
        match tenants.insert(name.to_string(), tenant) {
            None => Registration::Inserted,
            // A racing register of the same content loses benignly: the
            // last writer's engine wins, both share the same warm cache.
            Some(_) => Registration::Swapped,
        }
    }

    /// The engine serving `tenant`, if registered. The returned `Arc` pins
    /// the engine for the caller even if the tenant is concurrently
    /// hot-swapped; later lookups observe the replacement.
    pub fn engine(&self, tenant: &str) -> Option<Arc<SpeakQl>> {
        self.read().get(tenant).map(|t| Arc::clone(&t.engine))
    }

    /// Registered tenant names, sorted (for listings and reports).
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// The tenant map, read-locked. Every critical section leaves the map
    /// valid, so a poisoned lock is recovered rather than propagated.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Tenant>> {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tenant map, write-locked; poisoning is recovered as in
    /// [`TenantRegistry::read`].
    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, Tenant>> {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The skeleton cache shared by every registered engine.
    pub fn shared_cache(&self) -> &Arc<SkeletonCache> {
        &self.cache
    }

    /// The metrics recorder shared by every registered engine (and adopted
    /// by the server for its own counters).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}
