//! The workspace-wide typed error (`PebError`) and its context chain.
//!
//! Every fallible public entry point in `peb-data`, `sdm-peb` (trainer and
//! solver), `peb-litho::flow` and the bench binaries returns this type
//! instead of panicking: a malformed dataset file, a diverged training
//! run, or a corrupt checkpoint must surface as a value the caller can
//! match on, log, and recover from — the fab-loop deployment argument of
//! the TorchResist and physics-constrained-manufacturing lines of work.

use std::error::Error;
use std::fmt;
use std::io;

use peb_fft::FftError;
use peb_litho::LithoError;
use peb_tensor::TensorError;

/// Convenience alias used across the workspace's fault-tolerant paths.
pub type Result<T> = std::result::Result<T, PebError>;

/// The workspace-typed error.
///
/// Variants are coarse *classes* (callers dispatch on recoverability),
/// while precision lives in the `detail` strings and in [`PebError::Context`]
/// frames pushed by the [`Context`] extension trait.
#[derive(Debug, Clone, PartialEq)]
pub enum PebError {
    /// A tensor/geometry shape invariant was violated.
    Shape {
        /// What was violated.
        detail: String,
    },
    /// A configuration value violates a physical or logical invariant.
    Config {
        /// The violated invariant.
        detail: String,
    },
    /// An operating-system I/O failure (file missing, permission, disk).
    Io {
        /// `std::io::ErrorKind` of the underlying failure.
        kind: io::ErrorKind,
        /// The underlying error message.
        detail: String,
    },
    /// On-disk data failed validation: bad magic, checksum mismatch,
    /// truncation, or an undecodable record. Distinct from [`PebError::Io`]
    /// so callers can quarantine rather than retry.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// A numeric invariant broke outside the training loop (non-finite
    /// field values, singular solve, …).
    Numeric {
        /// The violated invariant.
        detail: String,
    },
    /// Training diverged and the rollback/retry budget is exhausted.
    Divergence {
        /// Description of the terminal state.
        detail: String,
        /// Rollbacks performed before giving up.
        rollbacks: u64,
    },
    /// A failure deliberately injected by the [`crate::chaos`] harness
    /// (e.g. a simulated mid-run kill). Never produced in production.
    Injected {
        /// Which injection fired.
        detail: String,
    },
    /// A context frame wrapping a lower-level error.
    Context {
        /// Human description of the operation that failed.
        ctx: String,
        /// The wrapped error.
        source: Box<PebError>,
    },
}

impl PebError {
    /// Builds a [`PebError::Shape`].
    pub fn shape(detail: impl Into<String>) -> Self {
        PebError::Shape {
            detail: detail.into(),
        }
    }

    /// Builds a [`PebError::Config`].
    pub fn config(detail: impl Into<String>) -> Self {
        PebError::Config {
            detail: detail.into(),
        }
    }

    /// Builds a [`PebError::Corrupt`].
    pub fn corrupt(detail: impl Into<String>) -> Self {
        PebError::Corrupt {
            detail: detail.into(),
        }
    }

    /// Builds a [`PebError::Numeric`].
    pub fn numeric(detail: impl Into<String>) -> Self {
        PebError::Numeric {
            detail: detail.into(),
        }
    }

    /// Builds a [`PebError::Injected`].
    pub fn injected(detail: impl Into<String>) -> Self {
        PebError::Injected {
            detail: detail.into(),
        }
    }

    /// The innermost (root-cause) error, unwrapping every context frame.
    pub fn root(&self) -> &PebError {
        match self {
            PebError::Context { source, .. } => source.root(),
            other => other,
        }
    }

    /// True when the root cause is data corruption (bad checksum, magic,
    /// truncation) — the "quarantine, don't retry" class.
    pub fn is_corrupt(&self) -> bool {
        matches!(self.root(), PebError::Corrupt { .. })
    }

    /// Wraps `self` in a context frame.
    pub fn context(self, ctx: impl Into<String>) -> Self {
        PebError::Context {
            ctx: ctx.into(),
            source: Box::new(self),
        }
    }
}

impl fmt::Display for PebError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PebError::Shape { detail } => write!(f, "shape error: {detail}"),
            PebError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            PebError::Io { kind, detail } => write!(f, "i/o error ({kind:?}): {detail}"),
            PebError::Corrupt { detail } => write!(f, "corrupt data: {detail}"),
            PebError::Numeric { detail } => write!(f, "numeric error: {detail}"),
            PebError::Divergence { detail, rollbacks } => {
                write!(
                    f,
                    "training diverged after {rollbacks} rollback(s): {detail}"
                )
            }
            PebError::Injected { detail } => write!(f, "injected fault: {detail}"),
            PebError::Context { ctx, source } => write!(f, "{ctx}: {source}"),
        }
    }
}

impl Error for PebError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PebError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for PebError {
    fn from(e: io::Error) -> Self {
        // `InvalidData` is how pre-guard codecs signalled format trouble;
        // keep that classified as corruption rather than an OS failure.
        if e.kind() == io::ErrorKind::InvalidData || e.kind() == io::ErrorKind::UnexpectedEof {
            PebError::Corrupt {
                detail: e.to_string(),
            }
        } else {
            PebError::Io {
                kind: e.kind(),
                detail: e.to_string(),
            }
        }
    }
}

impl From<TensorError> for PebError {
    fn from(e: TensorError) -> Self {
        PebError::Shape {
            detail: e.to_string(),
        }
    }
}

impl From<FftError> for PebError {
    fn from(e: FftError) -> Self {
        PebError::Numeric {
            detail: e.to_string(),
        }
    }
}

impl From<LithoError> for PebError {
    fn from(e: LithoError) -> Self {
        match e {
            LithoError::Tensor(t) => t.into(),
            LithoError::Fft(fft) => fft.into(),
            LithoError::Config { detail } | LithoError::Layout { detail } => {
                PebError::Config { detail }
            }
        }
    }
}

/// Extension adding `.ctx("…")` to any `Result` whose error converts into
/// [`PebError`] — the idiom for building readable context chains:
///
/// ```
/// use peb_guard::{Context, PebError};
/// let r: Result<(), std::io::Error> =
///     Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
/// let e = r.ctx("loading dataset cache").unwrap_err();
/// assert!(e.to_string().starts_with("loading dataset cache:"));
/// ```
pub trait Context<T> {
    /// Wraps the error (converted to [`PebError`]) in a context frame.
    fn ctx(self, msg: impl Into<String>) -> Result<T>;

    /// Like [`Context::ctx`] but lazily builds the message.
    fn with_ctx(self, f: impl FnOnce() -> String) -> Result<T>;
}

impl<T, E: Into<PebError>> Context<T> for std::result::Result<T, E> {
    fn ctx(self, msg: impl Into<String>) -> Result<T> {
        self.map_err(|e| e.into().context(msg))
    }

    fn with_ctx(self, f: impl FnOnce() -> String) -> Result<T> {
        self.map_err(|e| e.into().context(f()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_chain_displays_outside_in() {
        let root = PebError::corrupt("crc mismatch");
        let wrapped = root.clone().context("loading checkpoint epoch 3");
        assert_eq!(
            wrapped.to_string(),
            "loading checkpoint epoch 3: corrupt data: crc mismatch"
        );
        assert_eq!(wrapped.root(), &root);
        assert!(wrapped.is_corrupt());
        assert!(!matches!(wrapped.root(), PebError::Divergence { .. }));
    }

    #[test]
    fn io_error_classification() {
        let missing: PebError = io::Error::new(io::ErrorKind::NotFound, "no file").into();
        assert!(matches!(missing, PebError::Io { .. }));
        let truncated: PebError = io::Error::new(io::ErrorKind::UnexpectedEof, "short read").into();
        assert!(truncated.is_corrupt());
    }

    #[test]
    fn litho_error_maps_by_class() {
        let cfg: PebError = LithoError::Config {
            detail: "bad grid".into(),
        }
        .into();
        assert!(matches!(cfg, PebError::Config { .. }));
    }

    #[test]
    fn source_chain_walks_context_frames() {
        let e = PebError::numeric("nan in field")
            .context("peb solve")
            .context("flow run");
        let mut depth = 0;
        let mut cur: &dyn Error = &e;
        while let Some(next) = cur.source() {
            depth += 1;
            cur = next;
        }
        assert_eq!(depth, 2);
    }
}
