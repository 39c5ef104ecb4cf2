//! Compact binary framing for tensors and parameter vectors.
//!
//! Federated clients upload their parameter vectors every round; this module
//! gives the simulation a realistic wire format (and lets the benchmarks
//! measure serialization cost). The layout is:
//!
//! ```text
//! u32 rank | u64 dims[rank] | f32 data[prod(dims)]     (little endian)
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{Tensor, TensorError};

/// Floats converted per staging batch by the bulk f32 payload helpers.
///
/// The old wire code pushed floats through `put_f32_le`/`get_f32_le` one
/// element at a time — a call, a bounds check and a 4-byte append per
/// float. The helpers below instead run the `f32 ↔ little-endian bytes`
/// conversion over fixed-size batches on the stack and move each batch
/// with a single bulk copy; on little-endian targets the conversion loop
/// compiles down to a straight block copy, so serializing a parameter
/// vector is effectively one memcpy per batch.
const F32_BATCH: usize = 1024;

/// Appends `data` to `buf` as little-endian `f32`s via stack-batched bulk
/// copies.
fn put_f32s_le(buf: &mut BytesMut, data: &[f32]) {
    let mut raw = [0u8; 4 * F32_BATCH];
    for batch in data.chunks(F32_BATCH) {
        let used = &mut raw[..4 * batch.len()];
        for (dst, &v) in used.chunks_exact_mut(4).zip(batch) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(used);
    }
}

/// Appends `data` to a plain `Vec<u8>` as little-endian `f32`s — the same
/// bytes [`params_to_bytes`] carries after its count, for callers that
/// stage frames in reusable `Vec<u8>` buffers (the serve wire layer, a
/// network exporting its state parameter by parameter).
pub fn f32s_write_le(buf: &mut Vec<u8>, data: &[f32]) {
    let mut raw = [0u8; 4 * F32_BATCH];
    for batch in data.chunks(F32_BATCH) {
        let used = &mut raw[..4 * batch.len()];
        for (dst, &v) in used.chunks_exact_mut(4).zip(batch) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(used);
    }
}

/// Decodes the little-endian `f32`s of `src` straight into `out` — no
/// staging buffer, no intermediate collect. On little-endian targets the
/// loop compiles to a straight block copy.
///
/// # Panics
///
/// Panics unless `src` holds exactly `out.len()` floats.
pub fn f32s_read_le(src: &[u8], out: &mut [f32]) {
    assert_eq!(src.len(), 4 * out.len(), "f32s_read_le: byte count");
    for (o, c) in out.iter_mut().zip(src.chunks_exact(4)) {
        *o = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
    }
}

/// Reads `n` little-endian `f32`s from `bytes`, decoding directly into the
/// returned vector. The caller has already verified
/// `bytes.remaining() >= 4 * n`.
fn get_f32s_le(bytes: &mut Bytes, n: usize) -> Vec<f32> {
    let mut data = vec![0.0f32; n];
    f32s_read_le(&bytes.as_ref()[..4 * n], &mut data);
    bytes.advance(4 * n);
    data
}

/// Serializes a tensor into a freshly allocated byte buffer.
pub fn to_bytes(t: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 8 * t.rank() + 4 * t.len());
    buf.put_u32_le(t.rank() as u32);
    for &d in t.shape() {
        buf.put_u64_le(d as u64);
    }
    put_f32s_le(&mut buf, t.as_slice());
    buf.freeze()
}

/// Deserializes a tensor produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`TensorError::MalformedBytes`] when the buffer is truncated or
/// the header is inconsistent.
pub fn from_bytes(mut bytes: Bytes) -> Result<Tensor, TensorError> {
    if bytes.remaining() < 4 {
        return Err(TensorError::MalformedBytes("missing rank header".into()));
    }
    let rank = bytes.get_u32_le() as usize;
    if rank == 0 || rank > 8 {
        return Err(TensorError::MalformedBytes(format!(
            "implausible rank {rank}"
        )));
    }
    if bytes.remaining() < 8 * rank {
        return Err(TensorError::MalformedBytes("truncated shape".into()));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(bytes.get_u64_le() as usize);
    }
    // A hostile shape can overflow `prod(dims)` (and `4 * n`); reject via
    // checked arithmetic instead of trusting the header.
    let n: usize = match shape.iter().try_fold(1usize, |a, &d| a.checked_mul(d)) {
        Some(n) => n,
        None => {
            return Err(TensorError::MalformedBytes(format!(
                "implausible shape {shape:?} (element count overflows)"
            )))
        }
    };
    if (bytes.remaining() / 4) < n {
        return Err(TensorError::MalformedBytes(format!(
            "data truncated: need {} floats, have {} bytes",
            n,
            bytes.remaining()
        )));
    }
    let data = get_f32s_le(&mut bytes, n);
    Tensor::try_from_vec(shape, data)
}

/// Serializes a flat parameter vector (no shape) — the payload a federated
/// client uploads.
pub fn params_to_bytes(params: &[f32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + 4 * params.len());
    buf.put_u64_le(params.len() as u64);
    put_f32s_le(&mut buf, params);
    buf.freeze()
}

/// Appends the [`params_to_bytes`] encoding of `params` to `out` —
/// byte-for-byte the same payload, written into a caller-owned buffer so
/// a steady-state encode loop never allocates once `out`'s capacity is
/// warm.
pub fn params_write_into(out: &mut Vec<u8>, params: &[f32]) {
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    f32s_write_le(out, params);
}

/// Deserializes a parameter vector produced by [`params_to_bytes`].
///
/// # Errors
///
/// Returns [`TensorError::MalformedBytes`] on truncation.
pub fn params_from_bytes(mut bytes: Bytes) -> Result<Vec<f32>, TensorError> {
    if bytes.remaining() < 8 {
        return Err(TensorError::MalformedBytes("missing length header".into()));
    }
    let n = bytes.get_u64_le();
    // `remaining / 4 >= n` is the overflow-safe form of
    // `remaining >= 4 * n` — a hostile length prefix (u64::MAX) must be
    // rejected here, not fed to an allocator or a multiply.
    if ((bytes.remaining() / 4) as u64) < n {
        return Err(TensorError::MalformedBytes(format!(
            "param payload truncated: need {n} floats, have {} bytes",
            bytes.remaining()
        )));
    }
    Ok(get_f32s_le(&mut bytes, n as usize))
}

/// The float bytes of a [`params_to_bytes`] payload starting at the front
/// of `bytes` — `4 · n` of them, behind the 8-byte count — after the same
/// hostile-length validation [`params_from_bytes`] performs, borrowed in
/// place for a caller that decodes them where they are needed
/// ([`f32s_read_le`]).
///
/// # Errors
///
/// Returns [`TensorError::MalformedBytes`] on truncation or a length
/// prefix the buffer cannot back.
pub fn params_float_bytes(bytes: &[u8]) -> Result<&[u8], TensorError> {
    if bytes.len() < 8 {
        return Err(TensorError::MalformedBytes("missing length header".into()));
    }
    let n = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    if (((bytes.len() - 8) / 4) as u64) < n {
        return Err(TensorError::MalformedBytes(format!(
            "param payload truncated: need {n} floats, have {} bytes",
            bytes.len() - 8
        )));
    }
    Ok(&bytes[8..8 + 4 * n as usize])
}

/// Decodes a [`params_to_bytes`] payload straight into a caller-provided
/// slice — no intermediate collect, no allocation. Returns the number of
/// payload bytes consumed (`8 + 4 * out.len()`), so a caller embedding
/// the vector mid-payload can keep parsing after it.
///
/// # Errors
///
/// Returns [`TensorError::MalformedBytes`] on truncation, a hostile
/// length prefix, or when the announced float count differs from
/// `out.len()` (the caller sizes `out` to its protocol-known state
/// length, or calls [`params_read_into_vec`]).
pub fn params_read_into(bytes: &[u8], out: &mut [f32]) -> Result<usize, TensorError> {
    let floats = params_float_bytes(bytes)?;
    if floats.len() / 4 != out.len() {
        return Err(TensorError::MalformedBytes(format!(
            "param payload carries {} floats, caller expects {}",
            floats.len() / 4,
            out.len()
        )));
    }
    f32s_read_le(floats, out);
    Ok(8 + floats.len())
}

/// [`params_read_into`] for a caller-owned `Vec` resized to fit: decodes
/// whatever float count the payload announces, reusing the vector's
/// capacity. Returns the payload bytes consumed.
///
/// # Errors
///
/// Returns [`TensorError::MalformedBytes`] on truncation or a hostile
/// length prefix.
pub fn params_read_into_vec(bytes: &[u8], out: &mut Vec<f32>) -> Result<usize, TensorError> {
    let floats = params_float_bytes(bytes)?;
    out.resize(floats.len() / 4, 0.0);
    f32s_read_le(floats, out);
    Ok(8 + floats.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_roundtrip() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., -2., 3.5, 0., 5., -6.25]);
        let b = to_bytes(&t);
        let back = from_bytes(b).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rejects_truncated() {
        let t = Tensor::from_vec(vec![4], vec![1., 2., 3., 4.]);
        let b = to_bytes(&t);
        let cut = b.slice(0..b.len() - 3);
        assert!(matches!(
            from_bytes(cut),
            Err(TensorError::MalformedBytes(_))
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(from_bytes(Bytes::new()).is_err());
    }

    #[test]
    fn rejects_silly_rank() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(99);
        assert!(from_bytes(buf.freeze()).is_err());
    }

    #[test]
    fn bulk_writer_matches_per_element_wire_format() {
        // The bulk f32 batching must be a pure speedup: byte-for-byte the
        // same frames the old per-element `put_f32_le` loop produced.
        let values: Vec<f32> = (0..2500).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
        let t = Tensor::from_vec(vec![50, 50], values.clone());
        let mut legacy = BytesMut::new();
        legacy.put_u32_le(2);
        legacy.put_u64_le(50);
        legacy.put_u64_le(50);
        for &v in &values {
            legacy.put_f32_le(v);
        }
        assert_eq!(to_bytes(&t), legacy.freeze());

        let mut legacy_params = BytesMut::new();
        legacy_params.put_u64_le(values.len() as u64);
        for &v in &values {
            legacy_params.put_f32_le(v);
        }
        assert_eq!(params_to_bytes(&values), legacy_params.freeze());
    }

    #[test]
    fn bulk_reader_handles_non_batch_multiples() {
        // 1500 floats straddles the 1024-float staging batch.
        let p: Vec<f32> = (0..1500).map(|i| i as f32 - 750.0).collect();
        let b = params_to_bytes(&p);
        assert_eq!(params_from_bytes(b).unwrap(), p);
    }

    #[test]
    fn params_roundtrip() {
        let p = vec![0.5f32, -1.5, 2.25];
        let b = params_to_bytes(&p);
        assert_eq!(params_from_bytes(b).unwrap(), p);
    }

    #[test]
    fn params_rejects_truncation() {
        let p = vec![1.0f32; 10];
        let b = params_to_bytes(&p);
        let cut = b.slice(0..b.len() - 1);
        assert!(params_from_bytes(cut).is_err());
    }

    #[test]
    fn write_into_matches_allocating_encoder() {
        let p: Vec<f32> = (0..1500).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut buf = vec![0xAAu8; 3]; // pre-existing bytes survive
        params_write_into(&mut buf, &p);
        assert_eq!(&buf[..3], &[0xAA; 3]);
        assert_eq!(&buf[3..], params_to_bytes(&p).as_ref());
    }

    #[test]
    fn read_into_matches_allocating_decoder() {
        let p: Vec<f32> = (0..1029).map(|i| i as f32 - 514.5).collect();
        let wire = params_to_bytes(&p);
        let mut out = vec![0.0f32; p.len()];
        let used = params_read_into(wire.as_ref(), &mut out).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(out, p);
        let mut grown = Vec::new();
        assert_eq!(
            params_read_into_vec(wire.as_ref(), &mut grown).unwrap(),
            wire.len()
        );
        assert_eq!(grown, p);
    }

    #[test]
    fn read_into_rejects_bad_sizes() {
        let wire = params_to_bytes(&[1.0f32; 8]);
        let mut short = vec![0.0f32; 7];
        assert!(params_read_into(wire.as_ref(), &mut short).is_err());
        assert!(params_read_into(&wire.as_ref()[..9], &mut [0.0f32; 8]).is_err());
        assert!(params_float_bytes(&[0u8; 4]).is_err());
        // Hostile length prefix: u64::MAX floats announced, 0 present.
        let hostile = u64::MAX.to_le_bytes();
        assert!(params_float_bytes(&hostile).is_err());
        // The float run is borrowed exactly: trailing bytes stay outside.
        let mut padded = wire.as_ref().to_vec();
        padded.extend_from_slice(&[7; 5]);
        assert_eq!(params_float_bytes(&padded).unwrap(), &wire.as_ref()[8..]);
    }
}
