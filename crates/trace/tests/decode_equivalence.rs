//! Decode equivalence: every entry point to the binary parser gives the
//! same answer on the same bytes.
//!
//! Three decoders are compared:
//!
//! * [`read_binary`] over a reader returning random short reads (and
//!   spurious `Interrupted` errors);
//! * [`from_binary_slice`];
//! * [`StreamDecoder`] fed chunks of 1, 7 and 4096 bytes, and the whole
//!   input in one push.
//!
//! On valid traces, every truncation, byte flips, trailing bytes and
//! empty input, each must return an equal trace or an equal error
//! string. `StreamDecoder` alone sniffs the format: input that does not
//! open with the binary magic's first byte goes to its text parser, so
//! there it only has to fail (and agree with itself across chunkings).

use std::io::{self, Read};

use proptest::prelude::*;

use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::binary::MAGIC;
use cafa_trace::{
    from_binary_slice, read_binary, to_binary_vec, to_text_string, ObjId, Pc, ReadError,
    StreamDecoder, Trace, TraceBuilder, VarId,
};

/// What a decoder returned, with errors compared by their message.
type Outcome = Result<Trace, String>;

/// The error every truncated binary input reports.
const TRUNCATED: &str = "i/o error reading trace: failed to fill whole buffer";

/// A reader that hands out at most the next length `reads` cycles
/// through; a 0 is a spurious `Interrupted` error.
struct ShortReads<'a> {
    data: &'a [u8],
    reads: &'a [usize],
    call: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = self.reads[self.call % self.reads.len()];
        self.call += 1;
        if want == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn outcome(result: Result<Trace, ReadError>) -> Outcome {
    result.map_err(|e| e.to_string())
}

fn streamed(bytes: &[u8], chunk: usize) -> Outcome {
    let mut d = StreamDecoder::new();
    for c in bytes.chunks(chunk) {
        d.push(c).map_err(|e| e.to_string())?;
    }
    outcome(d.finish())
}

/// Decodes `bytes` every way, checks that they agree, and returns the
/// common outcome.
fn decode_all(bytes: &[u8], reads: &[usize]) -> Result<Outcome, TestCaseError> {
    let slice = outcome(from_binary_slice(bytes));
    let reads = if reads.iter().any(|&n| n > 0) {
        reads
    } else {
        &[1]
    };
    let read = outcome(read_binary(ShortReads {
        data: bytes,
        reads,
        call: 0,
    }));
    prop_assert_eq!(&read, &slice, "read_binary vs from_binary_slice");
    let whole = streamed(bytes, bytes.len().max(1));
    for chunk in [1, 7, 4096] {
        prop_assert_eq!(
            &streamed(bytes, chunk),
            &whole,
            "StreamDecoder at chunk {}",
            chunk
        );
    }
    if bytes.first() == Some(&MAGIC[0]) {
        prop_assert_eq!(&whole, &slice, "StreamDecoder vs from_binary_slice");
    } else {
        prop_assert!(whole.is_err() && slice.is_err(), "non-binary input decoded");
    }
    Ok(slice)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid, truncated, byte-flipped, over-long and empty inputs all
    /// decode to the same outcome through every entry point.
    #[test]
    fn every_decoder_agrees(
        tape in proptest::collection::vec(any::<u8>(), 0..300),
        mutation in (0u8..5, any::<u32>(), 1u8..=255),
        trailing in proptest::collection::vec(any::<u8>(), 1..8),
        reads in proptest::collection::vec(0usize..300, 1..16),
    ) {
        let trace = trace_from_tape(&tape);
        let valid = to_binary_vec(&trace);
        let (kind, at, flip) = mutation;
        let at = at as usize % valid.len();
        let bytes = match kind {
            0 => valid.clone(),
            1 => valid[..at].to_vec(),
            2 => {
                let mut b = valid.clone();
                b[at] ^= flip;
                b
            }
            3 => [valid.as_slice(), &trailing].concat(),
            _ => Vec::new(),
        };
        let got = decode_all(&bytes, &reads)?;
        match kind {
            0 => prop_assert_eq!(got, Ok(trace)),
            1 | 4 => prop_assert_eq!(got, Err(TRUNCATED.to_owned())),
            3 => prop_assert_eq!(
                got,
                Err(format!(
                    "parse error at {}: unexpected data after end of trace",
                    valid.len()
                ))
            ),
            _ => {}
        }
    }
}

/// A trace whose app name and one method name are `len` bytes long.
fn long_string_trace(len: usize) -> Trace {
    let mut b = TraceBuilder::new("a".repeat(len));
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "main");
    let e = b.post(t, q, "onClick", 0);
    b.process_event(e);
    b.method_enter(e, Pc::new(0x10), &"m".repeat(len));
    b.obj_write(e, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x14));
    b.finish().expect("valid")
}

/// A string far longer than any chunk decodes the same however it is
/// split, and the decoder never holds more than the item it waits on.
#[test]
fn long_string_split_across_pushes() {
    const LEN: usize = 100_000;
    let trace = long_string_trace(LEN);
    let bytes = to_binary_vec(&trace);
    for chunk in [1, 7, 4096] {
        let mut d = StreamDecoder::new();
        for c in bytes.chunks(chunk) {
            d.push(c).expect("valid stream");
            assert!(
                d.buffered_bytes() <= LEN + 32,
                "chunk {chunk}: {} bytes buffered",
                d.buffered_bytes()
            );
        }
        assert_eq!(d.buffered_bytes(), 0);
        assert_eq!(d.finish().expect("valid trace"), trace, "chunk {chunk}");
    }
    let got = decode_all(&bytes, &[1, 5000, 7, 0, 65536]).expect("decoders agree");
    assert_eq!(got, Ok(trace));
}

/// Text is not binary: the batch decoders do not sniff, so a text trace
/// fails at the magic, while `StreamDecoder` reads it as text.
#[test]
fn text_fed_to_the_binary_decoders_is_bad_magic() {
    let trace = trace_from_tape(&[3, 1, 4, 1, 5, 9, 2, 6]);
    let text = to_text_string(&trace).into_bytes();
    let bad_magic = "parse error at 0: bad magic; not a cafa binary trace".to_owned();
    assert_eq!(outcome(read_binary(&text[..])), Err(bad_magic.clone()));
    assert_eq!(outcome(from_binary_slice(&text)), Err(bad_magic));
    assert_eq!(streamed(&text, 7), Ok(trace));
}

/// Empty input is a truncated binary trace to the batch decoders and
/// "empty input" to the sniffing `StreamDecoder`.
#[test]
fn empty_input_keeps_each_decoders_error() {
    assert_eq!(outcome(read_binary(io::empty())), Err(TRUNCATED.to_owned()));
    assert_eq!(outcome(from_binary_slice(&[])), Err(TRUNCATED.to_owned()));
    assert_eq!(
        streamed(&[], 1),
        Err("parse error at 0: empty input".to_owned())
    );
}

/// Bytes after the end fail at their offset whether they arrive with
/// the trace or in a later push, and a failed decoder keeps failing.
#[test]
fn trailing_bytes_fail_in_every_push_and_at_finish() {
    let trace = trace_from_tape(&[2, 7, 1, 8, 2, 8, 1, 8]);
    let bytes = to_binary_vec(&trace);
    let expected = format!(
        "parse error at {}: unexpected data after end of trace",
        bytes.len()
    );
    let mut d = StreamDecoder::new();
    d.push(&bytes).expect("valid trace");
    assert!(d.is_complete());
    for _ in 0..2 {
        let err = d.push(&[0x01]).expect_err("trailing byte");
        assert_eq!(err.to_string(), expected);
    }
    assert_eq!(outcome(d.finish()), Err(expected));
}
