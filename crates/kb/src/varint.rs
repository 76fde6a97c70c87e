//! LEB128 variable-length integer codec used by the binary KB format.
//!
//! Sorted id sequences delta-encode to tiny gaps, so varints give the
//! HDT-style compression the paper relies on for its storage layer.

use bytes::{Buf, BufMut};

use crate::error::{KbError, Result};

/// Appends `value` to `out` in unsigned LEB128.
#[inline]
pub fn write_u64(out: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Appends a `u32` as LEB128.
#[inline]
pub fn write_u32(out: &mut impl BufMut, value: u32) {
    write_u64(out, value as u64);
}

/// Reads an unsigned LEB128 value, failing on truncation or overlong input.
#[inline]
pub fn read_u64(buf: &mut impl Buf) -> Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(KbError::Format("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err(KbError::Format("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(KbError::Format("varint too long".into()));
        }
    }
}

/// Reads a LEB128 value expected to fit a `u32`.
#[inline]
pub fn read_u32(buf: &mut impl Buf) -> Result<u32> {
    let v = read_u64(buf)?;
    u32::try_from(v).map_err(|_| KbError::Format(format!("varint {v} overflows u32")))
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_str(out: &mut impl BufMut, s: &str) {
    write_u64(out, s.len() as u64);
    out.put_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, appending it to `out` straight
/// from the buffer (no intermediate allocation).
pub fn read_str(buf: &mut &[u8], out: &mut String) -> Result<()> {
    let len = read_u64(buf)? as usize;
    let bytes = buf
        .get(..len)
        .ok_or_else(|| KbError::Format("truncated string".into()))?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| KbError::Format("invalid UTF-8 in string".into()))?;
    out.push_str(s);
    *buf = &buf[len..];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        write_u64(&mut buf, v);
        let mut b = buf.freeze();
        read_u64(&mut b).unwrap()
    }

    #[test]
    fn small_values_are_single_bytes() {
        for v in 0..128u64 {
            let mut buf = BytesMut::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn boundary_values_roundtrip() {
        for v in [0, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut buf = BytesMut::new();
        write_u64(&mut buf, u64::MAX);
        let bytes = buf.freeze();
        let mut cut = bytes.slice(..bytes.len() - 1);
        assert!(read_u64(&mut cut).is_err());
    }

    #[test]
    fn empty_buffer_is_an_error() {
        let mut empty = bytes::Bytes::new();
        assert!(read_u64(&mut empty).is_err());
    }

    #[test]
    fn u32_overflow_detected() {
        let mut buf = BytesMut::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        let mut b = buf.freeze();
        assert!(read_u32(&mut b).is_err());
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        write_str(&mut buf, "héllo wörld");
        let mut s = String::new();
        read_str(&mut &buf[..], &mut s).unwrap();
        assert_eq!(s, "héllo wörld");
    }

    #[test]
    fn truncated_string_is_an_error() {
        let mut buf = BytesMut::new();
        write_str(&mut buf, "hello");
        assert!(read_str(&mut &buf[..3], &mut String::new()).is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            prop_assert_eq!(roundtrip(v), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,200}") {
            let mut buf = BytesMut::new();
            write_str(&mut buf, &s);
            let mut out = String::new();
            read_str(&mut &buf[..], &mut out).unwrap();
            prop_assert_eq!(out, s);
        }

        #[test]
        fn prop_sequences_roundtrip(vs in proptest::collection::vec(any::<u64>(), 0..100)) {
            let mut buf = BytesMut::new();
            for &v in &vs {
                write_u64(&mut buf, v);
            }
            let mut b = buf.freeze();
            for &v in &vs {
                prop_assert_eq!(read_u64(&mut b).unwrap(), v);
            }
            prop_assert!(!b.has_remaining());
        }
    }
}
