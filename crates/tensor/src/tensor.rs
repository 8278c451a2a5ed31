//! Tensor metadata, runtime state, and the registry.
//!
//! This mirrors the paper's extended `Tensor` structure (Listing 1): a
//! stable id, access count, last-access timestamp, a five-state status, and
//! lineage (`inputs` + producing operation) for recomputation. The stable
//! [`TensorKey`] is what lets Capuchin "locate the same tensor across
//! multiple iterations \[whose\] underlying memory address could be different"
//! (§5.2) — here it is derived from the graph value a tensor materializes.

use std::fmt;

use capuchin_mem::{Allocation, HostAllocId};
use capuchin_sim::Time;
use serde::{Deserialize, Serialize};

use crate::shape::{DType, Shape};
use crate::sig::Signature;

/// Stable identity of a tensor across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TensorKey(pub u64);

impl fmt::Display for TensorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Opaque handle to the operation that produced a tensor (the executor maps
/// this to its graph's op id). Part of the lineage used for recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpHandle(pub u32);

/// The five tensor states of the paper (Listing 1). Tensors released for
/// recomputation only use `In`, `Out`, and `Recompute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorStatus {
    /// Resident in device memory.
    In,
    /// Device copy still valid; an asynchronous copy-out is in flight and
    /// the device memory will be released when it completes.
    SwappingOut,
    /// Only the host copy exists.
    Out,
    /// A copy-in is in flight; device memory is allocated but contents are
    /// not yet valid.
    SwappingIn,
    /// Dropped entirely; must be re-derived from lineage.
    Recompute,
}

impl fmt::Display for TensorStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TensorStatus::In => "IN",
            TensorStatus::SwappingOut => "SWAPPING_OUT",
            TensorStatus::Out => "OUT",
            TensorStatus::SwappingIn => "SWAPPING_IN",
            TensorStatus::Recompute => "RECOMPUTE",
        };
        f.write_str(s)
    }
}

/// How a tensor was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// The tensor was written by the operation that created it.
    Produce,
    /// The tensor was read as an operation input.
    Read,
}

/// One entry of the tensor access list: `{tensor_id, access_count,
/// timestamp}` as in §5.2, plus the access kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorAccess {
    /// Which tensor.
    pub key: TensorKey,
    /// The value of the tensor's access counter *after* this access
    /// (1 for the producing access).
    pub count: u32,
    /// GPU-timeline timestamp of the access.
    pub time: Time,
    /// Read or produce.
    pub kind: AccessKind,
}

/// Immutable description of a tensor (survives iterations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorMeta {
    /// Stable identity.
    pub key: TensorKey,
    /// Human-readable name (op output name).
    pub name: String,
    /// Logical shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// Lineage: the tensors consumed by the producing operation.
    pub inputs: Vec<TensorKey>,
    /// Lineage: the producing operation.
    pub op: Option<OpHandle>,
    /// Name of the producing operation (diagnostics).
    pub op_name: String,
    /// Persistent tensors (weights, optimizer state) stay resident across
    /// iterations and are never eviction candidates (§2.1).
    pub persistent: bool,
    /// Whether the tensor can be re-derived by replaying its lineage.
    /// Graph inputs can be swapped but not recomputed.
    pub recomputable: bool,
}

impl TensorMeta {
    /// Size of the tensor contents in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.shape.size_bytes(self.dtype)
    }
}

/// A live tensor: metadata plus mutable runtime state.
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Immutable description.
    pub meta: TensorMeta,
    /// Current residency status.
    pub status: TensorStatus,
    /// Device allocation backing the tensor (present in `In`,
    /// `SwappingOut`, and `SwappingIn` states).
    pub device: Option<Allocation>,
    /// Host staging buffer (present in `SwappingOut`, `Out`, `SwappingIn`).
    pub host: Option<HostAllocId>,
    /// Instant at which the device contents become valid (the swap-in or
    /// producing kernel completion event). Reads must not start earlier.
    pub ready_at: Time,
    /// Instant at which an in-flight swap-out completes (device memory may
    /// be released then).
    pub swapout_done_at: Option<Time>,
    /// Number of times the tensor has been accessed this iteration.
    pub access_count: u32,
    /// Timestamp of the most recent access.
    pub last_access: Time,
    /// Expected content signature.
    pub signature: Signature,
}

impl Tensor {
    /// Creates a tensor in the `Recompute`-like "not yet produced" state.
    pub fn new(meta: TensorMeta, signature: Signature) -> Tensor {
        Tensor {
            meta,
            status: TensorStatus::Recompute,
            device: None,
            host: None,
            ready_at: Time::ZERO,
            swapout_done_at: None,
            access_count: 0,
            last_access: Time::ZERO,
            signature,
        }
    }

    /// Stable identity.
    pub fn key(&self) -> TensorKey {
        self.meta.key
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.meta.size_bytes()
    }

    /// Whether the device copy currently holds valid-or-becoming-valid data.
    pub fn on_device(&self) -> bool {
        matches!(
            self.status,
            TensorStatus::In | TensorStatus::SwappingOut | TensorStatus::SwappingIn
        )
    }
}

/// The set of live tensors, indexed by stable key.
///
/// Keys are dense small integers (the executor derives them from graph
/// value ids), so the registry is a table indexed by key rather than a
/// hash map: a lookup is one bounds check, and iteration runs in key
/// order.
///
/// # Examples
///
/// ```
/// use capuchin_tensor::{DType, Shape, TensorKey, TensorMeta, TensorRegistry};
///
/// let mut reg = TensorRegistry::new();
/// let key = TensorKey(7);
/// reg.insert_new(
///     TensorMeta {
///         key,
///         name: "relu_out".into(),
///         shape: Shape::nchw(1, 8, 4, 4),
///         dtype: DType::F32,
///         inputs: vec![],
///         op: None,
///         op_name: "relu".into(),
///         persistent: false,
///         recomputable: true,
///     },
///     0xdead_beef,
/// );
/// assert_eq!(reg.get(key).unwrap().signature, 0xdead_beef);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TensorRegistry {
    /// Boxed so the table holds pointers, not ~200-byte tensors: a large
    /// model's table then stays well under glibc's 128 KiB mmap
    /// threshold. Freeing a block above it raises the allocator's trim
    /// threshold for good, and every thread arena keeps more memory.
    tensors: Vec<Option<Box<Tensor>>>,
    len: usize,
}

impl TensorRegistry {
    /// Creates an empty registry.
    pub fn new() -> TensorRegistry {
        TensorRegistry::default()
    }

    /// Number of registered tensors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(key: TensorKey) -> usize {
        usize::try_from(key.0).expect("tensor keys are dense indices")
    }

    /// Registers a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered.
    pub fn insert_new(&mut self, meta: TensorMeta, signature: Signature) -> &mut Tensor {
        let key = meta.key;
        let slot = Self::slot(key);
        if slot >= self.tensors.len() {
            self.tensors.resize_with(slot + 1, || None);
        }
        let entry = &mut self.tensors[slot];
        assert!(entry.is_none(), "tensor {key} registered twice");
        self.len += 1;
        entry.insert(Box::new(Tensor::new(meta, signature)))
    }

    /// Looks up a tensor.
    pub fn get(&self, key: TensorKey) -> Option<&Tensor> {
        self.tensors.get(Self::slot(key))?.as_deref()
    }

    /// Looks up a tensor mutably.
    pub fn get_mut(&mut self, key: TensorKey) -> Option<&mut Tensor> {
        self.tensors.get_mut(Self::slot(key))?.as_deref_mut()
    }

    /// Removes a tensor, returning it.
    pub fn remove(&mut self, key: TensorKey) -> Option<Tensor> {
        let t = self.tensors.get_mut(Self::slot(key))?.take()?;
        self.len -= 1;
        Some(*t)
    }

    /// Iterates over all tensors, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Tensor> {
        self.tensors.iter().filter_map(|t| t.as_deref())
    }

    /// Iterates mutably over all tensors, in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.tensors.iter_mut().filter_map(|t| t.as_deref_mut())
    }

    /// Drops all non-persistent tensors (end of iteration), keeping weights.
    pub fn retain_persistent(&mut self) {
        for entry in &mut self.tensors {
            if entry.as_ref().is_some_and(|t| !t.meta.persistent) {
                *entry = None;
                self.len -= 1;
            }
        }
    }

    /// Resets per-iteration counters on the surviving tensors.
    pub fn reset_access_counts(&mut self) {
        for t in self.iter_mut() {
            t.access_count = 0;
            t.last_access = Time::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(key: u64, persistent: bool) -> TensorMeta {
        TensorMeta {
            key: TensorKey(key),
            name: format!("t{key}"),
            shape: Shape::vector(16),
            dtype: DType::F32,
            inputs: vec![],
            op: None,
            op_name: "leaf".into(),
            persistent,
            recomputable: !persistent,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut reg = TensorRegistry::new();
        reg.insert_new(meta(1, false), 11);
        reg.insert_new(meta(2, true), 22);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(TensorKey(1)).unwrap().signature, 11);
        assert!(reg.get(TensorKey(3)).is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_key_panics() {
        let mut reg = TensorRegistry::new();
        reg.insert_new(meta(1, false), 0);
        reg.insert_new(meta(1, false), 0);
    }

    #[test]
    fn retain_persistent_drops_activations() {
        let mut reg = TensorRegistry::new();
        reg.insert_new(meta(1, false), 0);
        reg.insert_new(meta(2, true), 0);
        reg.retain_persistent();
        assert_eq!(reg.len(), 1);
        assert!(reg.get(TensorKey(2)).is_some());
    }

    #[test]
    fn table_tracks_len_and_iterates_in_key_order() {
        let mut reg = TensorRegistry::new();
        for key in [9, 2, 5] {
            reg.insert_new(meta(key, key == 5), key);
        }
        assert_eq!(reg.len(), 3);
        let keys: Vec<u64> = reg.iter().map(|t| t.key().0).collect();
        assert_eq!(keys, vec![2, 5, 9]);
        assert_eq!(reg.remove(TensorKey(9)).map(|t| t.signature), Some(9));
        assert!(reg.remove(TensorKey(9)).is_none());
        assert!(reg.get(TensorKey(100)).is_none());
        reg.retain_persistent();
        assert_eq!(reg.len(), 1);
        // A freed key can be registered again.
        reg.insert_new(meta(2, false), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn new_tensor_starts_unmaterialized() {
        let t = Tensor::new(meta(5, false), 99);
        assert_eq!(t.status, TensorStatus::Recompute);
        assert!(!t.on_device());
        assert_eq!(t.access_count, 0);
    }

    #[test]
    fn size_bytes_follows_shape() {
        let t = Tensor::new(meta(5, false), 0);
        assert_eq!(t.size_bytes(), 64);
    }

    #[test]
    fn reset_access_counts_clears() {
        let mut reg = TensorRegistry::new();
        reg.insert_new(meta(1, true), 0);
        reg.get_mut(TensorKey(1)).unwrap().access_count = 5;
        reg.reset_access_counts();
        assert_eq!(reg.get(TensorKey(1)).unwrap().access_count, 0);
    }
}
