//! Message payloads and packets.
//!
//! The AGCM exchanges two kinds of data: floating-point field sections
//! (halo rows, filter rows, physics columns) and integer bookkeeping
//! (row counts, movement plans). [`Payload`] captures these without forcing a serialization round-trip —
//! an `F64` payload is moved, never copied element-by-element.

/// The body of a message.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A buffer of 64-bit floats (field data).
    F64(Vec<f64>),
    /// A buffer of 64-bit signed integers (plans, counts, indices).
    I64(Vec<i64>),
    /// An empty message (pure synchronization).
    Empty,
}

impl Payload {
    /// Number of bytes this payload occupies on the wire.
    ///
    /// Used by the trace/cost model: the paper's machines charged per byte
    /// transferred, so the simulator needs wire sizes, not element counts.
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len() * 8,
            Payload::I64(v) => v.len() * 8,
            Payload::Empty => 0,
        }
    }

    /// Variant name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::I64(_) => "I64",
            Payload::Empty => "Empty",
        }
    }

    /// Unwrap as a float buffer; panics with a clear message otherwise.
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, found {}", other.kind()),
        }
    }

    /// Unwrap as an integer buffer; panics with a clear message otherwise.
    pub fn into_i64(self) -> Vec<i64> {
        match self {
            Payload::I64(v) => v,
            other => panic!("expected I64 payload, found {}", other.kind()),
        }
    }

    /// Borrow as a float slice if this is an `F64` payload.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Payload::F64(v) => Some(v),
            _ => None,
        }
    }
}

/// A delivered message.
///
/// `src` is the rank *within the communicator the receive was posted on*;
/// `seq` is a per-(source → destination) sequence number assigned at send
/// time, which lets the trace replayer match each receive to the exact send
/// that produced it.
#[derive(Debug)]
pub struct Packet {
    /// Source rank in the receiving communicator.
    pub src: usize,
    /// User tag.
    pub tag: u64,
    /// Per-(world source, world destination) send sequence number.
    pub seq: u64,
    /// Message body.
    pub payload: Payload,
}

/// Internal wire format: addressed by world ranks and communicator context.
#[derive(Debug, Clone)]
pub(crate) struct WirePacket {
    pub world_src: usize,
    pub ctx: u64,
    pub tag: u64,
    pub seq: u64,
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lengths() {
        assert_eq!(Payload::F64(vec![0.0; 10]).byte_len(), 80);
        assert_eq!(Payload::I64(vec![0; 3]).byte_len(), 24);
        assert_eq!(Payload::Empty.byte_len(), 0);
    }

    #[test]
    fn unwrap_roundtrips() {
        assert_eq!(Payload::F64(vec![1.5, 2.5]).into_f64(), vec![1.5, 2.5]);
        assert_eq!(Payload::I64(vec![-4, 9]).into_i64(), vec![-4, 9]);
    }

    #[test]
    fn borrow_accessors() {
        let p = Payload::F64(vec![3.0]);
        assert_eq!(p.as_f64(), Some(&[3.0][..]));
        assert_eq!(Payload::I64(vec![8]).as_f64(), None);
    }

    #[test]
    #[should_panic(expected = "expected F64 payload")]
    fn wrong_unwrap_panics() {
        Payload::I64(vec![1]).into_f64();
    }

    #[test]
    fn kinds() {
        assert_eq!(Payload::Empty.kind(), "Empty");
        assert_eq!(Payload::F64(vec![]).kind(), "F64");
        assert_eq!(Payload::I64(vec![]).kind(), "I64");
    }
}
