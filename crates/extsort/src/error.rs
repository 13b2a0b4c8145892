//! Error type for the external sorting pipeline.

use std::fmt;
use twrs_storage::StorageError;

/// Convenient result alias used throughout the sorting crates.
pub type Result<T> = std::result::Result<T, SortError>;

/// Errors raised while generating runs, merging or sorting.
#[derive(Debug)]
pub enum SortError {
    /// An error from the storage substrate.
    Storage(StorageError),
    /// The configuration is invalid (e.g. zero memory or a fan-in below 2).
    InvalidConfig(String),
    /// The sorted output failed a verification check.
    VerificationFailed(String),
    /// A [`RecordSink`](crate::sink::RecordSink) refused a record or was
    /// finished twice — e.g. a channel sink whose receiver hung up.
    SinkClosed(String),
    /// The job was canceled — while still queued, or cooperatively
    /// preempted at a phase/page boundary after it started running (see
    /// [`JobHandle::cancel`](crate::service::JobHandle::cancel) and
    /// [`CancellationToken`](crate::cancel::CancellationToken)).
    Canceled(String),
    /// The sort pipeline panicked while the job was running. The service
    /// worker catches the unwind, releases the job's memory lease and
    /// completes the job as `Failed` with this error; the pipeline's drop
    /// guard sweeps the job's spill files during the unwind. A merge
    /// prefetch thread that dies before delivering its whole run surfaces
    /// as this error from the merge, or the stream, reading it.
    JobPanicked(String),
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::Storage(e) => write!(f, "storage error: {e}"),
            SortError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SortError::VerificationFailed(msg) => write!(f, "verification failed: {msg}"),
            SortError::SinkClosed(msg) => write!(f, "record sink closed: {msg}"),
            SortError::Canceled(msg) => write!(f, "sort job canceled: {msg}"),
            SortError::JobPanicked(msg) => write!(f, "sort job panicked: {msg}"),
        }
    }
}

impl std::error::Error for SortError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SortError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SortError {
    fn from(e: StorageError) -> Self {
        SortError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_errors_convert_and_chain() {
        let err: SortError = StorageError::NotFound("run".into()).into();
        assert!(matches!(err, SortError::Storage(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("run"));
    }

    #[test]
    fn config_errors_display_message() {
        let err = SortError::InvalidConfig("fan-in must be at least 2".into());
        assert!(err.to_string().contains("fan-in"));
    }

    #[test]
    fn sink_errors_display_message() {
        let err = SortError::SinkClosed("receiver hung up".into());
        assert!(err.to_string().contains("sink closed"));
        assert!(err.to_string().contains("receiver hung up"));
    }
}
