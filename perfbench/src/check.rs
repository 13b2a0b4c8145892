//! Output checks: record count, ascending order and an order-independent
//! key checksum compared against the generated input.

use twrs_workloads::Record;

/// Record count and checksum of a multiset of records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of records.
    pub records: u64,
    /// Wrapping sum of a mix of each record's key and payload.
    pub checksum: u64,
}

/// SplitMix64 finaliser: spreads every input bit over the output, so the
/// checksum catches a changed, lost or duplicated record.
fn mix(record: &Record) -> u64 {
    let mut z = record.key ^ record.payload.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fingerprint {
    /// Fingerprint of `records`.
    pub fn of<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut fp = Fingerprint::default();
        for record in records {
            fp.add(record);
        }
        fp
    }

    fn add(&mut self, record: &Record) {
        self.records += 1;
        self.checksum = self.checksum.wrapping_add(mix(record));
    }
}

/// Checks that `output` holds exactly the input fingerprinted by `expected`,
/// in ascending order.
pub fn check_sorted<'a>(
    output: impl IntoIterator<Item = &'a Record>,
    expected: Fingerprint,
) -> Result<(), String> {
    let mut got = Fingerprint::default();
    let mut previous: Option<&Record> = None;
    for record in output {
        if let Some(prev) = previous {
            if record < prev {
                return Err(format!(
                    "record {} is out of order: {record:?} after {prev:?}",
                    got.records
                ));
            }
        }
        got.add(record);
        previous = Some(record);
    }
    if got != expected {
        return Err(format!("output {got:?} does not match input {expected:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_order_count_and_content_errors() {
        let input = [Record::new(3, 0), Record::new(1, 1), Record::new(2, 2)];
        let expected = Fingerprint::of(&input);
        let mut sorted = input.to_vec();
        sorted.sort();
        assert!(check_sorted(&sorted, expected).is_ok());
        assert!(check_sorted(&input, expected).is_err());
        assert!(check_sorted(&sorted[..2], expected).is_err());
        let mut changed = sorted.clone();
        changed[1].payload = 9;
        assert!(check_sorted(&changed, expected).is_err());
    }
}
