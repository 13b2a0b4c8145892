//! Destinations for the final merge pass: the [`RecordSink`] trait and its
//! standard implementations.
//!
//! The sort pipeline exists to feed a consumer, and "a named run file on the
//! device" is only one possible consumer. A [`RecordSink`] receives the
//! fully merged record sequence, in ascending order, one record at a time —
//! the final k-way merge drains straight into it, so a non-file sink pays
//! **no final output write pass** at all. Four destinations ship with the
//! crate:
//!
//! * [`FileSink`] — the classic destination: a forward run file on a
//!   storage device (`SortJob::run_iter` is a thin wrapper over it);
//! * [`VecSink`] — collect the sorted records into memory;
//! * [`CallbackSink`] — hand each record to a closure (top-k scans,
//!   aggregation, bulk-load adapters);
//! * [`ChannelSink`] — push records into a bounded [`SyncSender`] so a
//!   consumer thread overlaps with the merge (back-pressure included).
//!
//! For pull-style consumption — an `Iterator` the caller drives at its own
//! pace — see [`SortedStream`](crate::stream::SortedStream), which suspends
//! the final merge instead of draining it.

use crate::error::{Result, SortError};
use std::sync::mpsc::SyncSender;
use twrs_storage::{RunWriter, SortableRecord, StorageDevice};

/// A destination for the final merge pass of a sort.
///
/// The pipeline calls [`push`](RecordSink::push) once per record, in
/// ascending order, then [`finish`](RecordSink::finish) exactly once after
/// the last record. An error from either aborts the sort; the pipeline then
/// removes its remaining spill files before surfacing the error, so a
/// failing sink never leaks device space.
pub trait RecordSink<R: SortableRecord> {
    /// Accepts the next record of the sorted output.
    fn push(&mut self, record: R) -> Result<()>;

    /// Called once after the last record; flush buffered state here.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A borrowed sink: what a sort is handed by `&mut` drains into the sink
/// itself.
impl<R: SortableRecord, K: RecordSink<R> + ?Sized> RecordSink<R> for &mut K {
    fn push(&mut self, record: R) -> Result<()> {
        (**self).push(record)
    }

    fn finish(&mut self) -> Result<()> {
        (**self).finish()
    }
}

/// A sink writing a forward run file on a storage device — the destination
/// `run_iter`/`run_file` wrap. The file is created eagerly so the name is
/// visible at once; records stream into it page by page.
pub struct FileSink<R: SortableRecord> {
    writer: Option<RunWriter<R>>,
    name: String,
}

impl<R: SortableRecord> FileSink<R> {
    /// Creates the named output file on `device` and prepares to receive
    /// records.
    pub fn create(device: &dyn StorageDevice, name: &str) -> Result<Self> {
        Ok(FileSink {
            writer: Some(RunWriter::create(device, name)?),
            name: name.to_string(),
        })
    }

    /// Name of the output file this sink writes.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn writer(&mut self) -> Result<&mut RunWriter<R>> {
        let name = &self.name;
        self.writer
            .as_mut()
            .ok_or_else(|| SortError::SinkClosed(format!("file sink {name:?} already finished")))
    }
}

impl<R: SortableRecord> RecordSink<R> for FileSink<R> {
    fn push(&mut self, record: R) -> Result<()> {
        self.writer()?.push(&record)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        match self.writer.take() {
            Some(writer) => {
                writer.finish()?;
                Ok(())
            }
            None => Err(SortError::SinkClosed(
                "file sink finished twice".to_string(),
            )),
        }
    }
}

/// A sink collecting the sorted records into a `Vec`.
#[derive(Debug, Clone)]
pub struct VecSink<R> {
    records: Vec<R>,
}

// Manual impl: an empty `Vec<R>` needs no `R: Default`, which the derive
// would demand.
impl<R> Default for VecSink<R> {
    fn default() -> Self {
        VecSink {
            records: Vec::new(),
        }
    }
}

impl<R: SortableRecord> VecSink<R> {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink {
            records: Vec::new(),
        }
    }

    /// The records collected so far.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Consumes the sink, returning the collected records.
    pub fn into_vec(self) -> Vec<R> {
        self.records
    }
}

impl<R: SortableRecord> RecordSink<R> for VecSink<R> {
    fn push(&mut self, record: R) -> Result<()> {
        self.records.push(record);
        Ok(())
    }
}

/// A sink handing each record to a closure. The closure may return an error
/// to abort the sort (e.g. a top-k consumer that has seen enough).
pub struct CallbackSink<F> {
    callback: F,
}

impl<F> CallbackSink<F> {
    /// Wraps `callback`; it receives every record in ascending order.
    pub fn new(callback: F) -> Self {
        CallbackSink { callback }
    }
}

impl<R: SortableRecord, F: FnMut(R) -> Result<()>> RecordSink<R> for CallbackSink<F> {
    fn push(&mut self, record: R) -> Result<()> {
        (self.callback)(record)
    }
}

/// A sink feeding a bounded channel, so a consumer thread processes the
/// sorted output while the merge is still producing it. When the channel is
/// full the merge blocks (back-pressure); when the receiver hangs up the
/// sort aborts with [`SortError::SinkClosed`].
pub struct ChannelSink<R> {
    sender: Option<SyncSender<R>>,
}

impl<R: SortableRecord> ChannelSink<R> {
    /// Wraps the sending half of a `std::sync::mpsc::sync_channel`.
    pub fn new(sender: SyncSender<R>) -> Self {
        ChannelSink {
            sender: Some(sender),
        }
    }
}

impl<R: SortableRecord> RecordSink<R> for ChannelSink<R> {
    fn push(&mut self, record: R) -> Result<()> {
        let sender = self
            .sender
            .as_ref()
            .ok_or_else(|| SortError::SinkClosed("channel sink already finished".into()))?;
        sender
            .send(record)
            .map_err(|_| SortError::SinkClosed("channel sink receiver hung up".into()))
    }

    fn finish(&mut self) -> Result<()> {
        // Drop the sender so the receiving side sees the end of the stream.
        self.sender.take();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::Record;

    #[test]
    fn vec_sink_collects_in_push_order() {
        let mut sink = VecSink::new();
        for k in [3u64, 5, 9] {
            sink.push(Record::from_key(k)).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(sink.records().len(), 3);
        let keys: Vec<u64> = sink.into_vec().into_iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![3, 5, 9]);
    }

    #[test]
    fn file_sink_writes_a_readable_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut sink = FileSink::<Record>::create(&device, "out").unwrap();
        for k in 0..100u64 {
            sink.push(Record::from_key(k)).unwrap();
        }
        RecordSink::<Record>::finish(&mut sink).unwrap();
        let mut reader = twrs_storage::RunReader::<Record>::open(&device, "out").unwrap();
        assert_eq!(reader.len(), 100);
        let mut count = 0;
        while reader.next_record().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 100);
        // Finishing twice (or pushing afterwards) is a sink-closed error.
        assert!(matches!(
            RecordSink::<Record>::finish(&mut sink),
            Err(SortError::SinkClosed(_))
        ));
        assert!(matches!(
            sink.push(Record::from_key(1)),
            Err(SortError::SinkClosed(_))
        ));
    }

    #[test]
    fn callback_sink_forwards_records_and_errors() {
        let mut seen = Vec::new();
        {
            let mut sink = CallbackSink::new(|r: Record| {
                seen.push(r.key);
                Ok(())
            });
            sink.push(Record::from_key(1)).unwrap();
            sink.push(Record::from_key(2)).unwrap();
            sink.finish().unwrap();
        }
        assert_eq!(seen, vec![1, 2]);
        let mut failing =
            CallbackSink::new(|_: Record| Err(SortError::SinkClosed("consumer done".into())));
        assert!(matches!(
            failing.push(Record::from_key(1)),
            Err(SortError::SinkClosed(_))
        ));
    }

    #[test]
    fn channel_sink_feeds_a_consumer_and_detects_hangup() {
        let (tx, rx) = sync_channel::<Record>(4);
        let mut sink = ChannelSink::new(tx);
        let consumer = std::thread::spawn(move || rx.into_iter().map(|r| r.key).sum::<u64>());
        for k in 1..=10u64 {
            sink.push(Record::from_key(k)).unwrap();
        }
        RecordSink::<Record>::finish(&mut sink).unwrap();
        assert_eq!(consumer.join().unwrap(), 55);

        let (tx, rx) = sync_channel::<Record>(1);
        let mut sink = ChannelSink::new(tx);
        drop(rx);
        assert!(matches!(
            sink.push(Record::from_key(1)),
            Err(SortError::SinkClosed(_))
        ));
    }
}
