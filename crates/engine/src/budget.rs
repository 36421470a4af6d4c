//! The engine's resource knob: how many worker threads, how big a chunk.

use std::error::Error;
use std::fmt;

/// Errors constructing an engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A thread count of zero was requested; the engine always needs at
    /// least the calling thread.
    ZeroThreads,
    /// A chunk size of zero was requested; chunks must hold at least one
    /// offer.
    ZeroChunkSize,
    /// A shard count of zero was requested; a sharded live book always
    /// needs at least one shard. (Without this guard [`stable_shard`]'s
    /// `id % shards` would panic with a divide-by-zero.)
    ///
    /// [`stable_shard`]: crate::stable_shard
    ZeroShards,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ZeroThreads => write!(f, "thread count must be at least 1"),
            EngineError::ZeroChunkSize => write!(f, "chunk size must be at least 1"),
            EngineError::ZeroShards => write!(f, "shard count must be at least 1"),
        }
    }
}

impl Error for EngineError {}

/// A worker budget: thread count and an optional explicit chunk size.
///
/// The chunk size is the number of offers a worker claims at a time. Left
/// unset, [`Budget::chunk_size_for`] derives one that yields roughly four
/// chunks per thread — small enough to balance uneven per-offer cost,
/// large enough to amortise dispatch. No knob affects results, only
/// throughput; the engine's merge order is deterministic regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    threads: usize,
    chunk_size: Option<usize>,
}

impl Budget {
    /// A single-threaded budget: everything runs on the calling thread.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            chunk_size: None,
        }
    }

    /// A budget with an explicit thread count.
    pub fn with_threads(threads: usize) -> Result<Self, EngineError> {
        if threads == 0 {
            return Err(EngineError::ZeroThreads);
        }
        Ok(Self {
            threads,
            chunk_size: None,
        })
    }

    /// A budget sized to the host:
    /// [`std::thread::available_parallelism`] threads (1 when detection
    /// fails).
    pub fn detected() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: None,
        }
    }

    /// Pins the chunk size instead of deriving it from the portfolio.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Result<Self, EngineError> {
        if chunk_size == 0 {
            return Err(EngineError::ZeroChunkSize);
        }
        self.chunk_size = Some(chunk_size);
        Ok(self)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The explicitly pinned chunk size, if any.
    pub fn explicit_chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }

    /// The chunk size used for a portfolio of `len` offers: the pinned one,
    /// or `ceil(len / (4 * threads))`, at least 1. The multiplication
    /// saturates so absurd thread counts degrade to chunk size 1 instead
    /// of overflowing.
    pub fn chunk_size_for(&self, len: usize) -> usize {
        match self.chunk_size {
            Some(c) => c,
            None => len.div_ceil(4usize.saturating_mul(self.threads)).max(1),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::detected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_knobs_are_rejected() {
        assert_eq!(Budget::with_threads(0), Err(EngineError::ZeroThreads));
        assert_eq!(
            Budget::sequential().with_chunk_size(0),
            Err(EngineError::ZeroChunkSize)
        );
    }

    #[test]
    fn derived_chunk_size_targets_four_chunks_per_thread() {
        let b = Budget::with_threads(4).unwrap();
        assert_eq!(b.chunk_size_for(16_000), 1000);
        assert_eq!(b.chunk_size_for(0), 1);
        assert_eq!(b.chunk_size_for(3), 1);
        let pinned = b.with_chunk_size(7).unwrap();
        assert_eq!(pinned.chunk_size_for(16_000), 7);
    }

    #[test]
    fn absurd_thread_counts_do_not_overflow_chunk_math() {
        let b = Budget::with_threads(usize::MAX).unwrap();
        assert_eq!(b.chunk_size_for(100), 1);
        assert_eq!(b.chunk_size_for(0), 1);
    }

    #[test]
    fn detected_has_at_least_one_thread() {
        assert!(Budget::detected().threads() >= 1);
        assert!(Budget::default().threads() >= 1);
    }

    #[test]
    fn errors_render() {
        assert!(EngineError::ZeroThreads.to_string().contains("at least 1"));
        assert!(EngineError::ZeroChunkSize
            .to_string()
            .contains("at least 1"));
        assert!(EngineError::ZeroShards
            .to_string()
            .contains("shard count must be at least 1"));
    }
}
