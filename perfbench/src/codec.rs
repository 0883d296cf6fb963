//! The `bhserve` layer, measured on a workload's own state: the wire codec
//! a session snapshot of the job's bodies goes through (`proto` response,
//! JSON text, frame write and read, decode), timed through its public
//! functions.

use crate::report::median;
use bhserve::proto;
use nbody::{Body, Vec3};
use serde::Value;
use std::time::Instant;

/// Decodes the `bodies` array of a `snapshot` response.  `cost` is not on
/// the wire and is left at 0.
pub fn decode_bodies(bodies: &Value) -> Result<Vec<Body>, String> {
    let f = |v: Option<&Value>| {
        v.and_then(Value::as_str).and_then(proto::unhex_f64).ok_or("bad hex float".to_string())
    };
    let v3 = |v: Option<&Value>| -> Result<Vec3, String> {
        let a = v.and_then(Value::as_array).filter(|a| a.len() == 3).ok_or("bad vector")?;
        Ok(Vec3::new(f(a.first())?, f(a.get(1))?, f(a.get(2))?))
    };
    bodies
        .as_array()
        .ok_or("bodies is not an array")?
        .iter()
        .map(|b| {
            let id = b.get("id").and_then(Value::as_u64).ok_or("bad id")?;
            let mut body =
                Body::new(id as u32, v3(b.get("pos"))?, v3(b.get("vel"))?, f(b.get("mass"))?);
            body.acc = v3(b.get("acc"))?;
            body.phi = f(b.get("phi"))?;
            body.cost = 0;
            Ok(body)
        })
        .collect()
}

/// One session snapshot of `bodies` through the wire and back.
pub fn round_trip(bodies: &[Body]) -> Result<Vec<Body>, String> {
    let response = proto::ok_response(vec![
        ("session".to_string(), Value::UInt(1)),
        ("bodies".to_string(), proto::snapshot_bodies(bodies)),
    ]);
    let text = serde_json::to_string(&response).map_err(|e| e.to_string())?;
    let mut wire = Vec::new();
    bhserve::write_frame(&mut wire, text.as_bytes()).map_err(|e| e.to_string())?;
    let payload = bhserve::read_frame(&mut wire.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("no frame read back")?;
    let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
    let parsed: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    decode_bodies(parsed.get("bodies").ok_or("no bodies field")?)
}

/// Milliseconds of [`round_trip`] on `bodies`, median of [`REPEATS`], and
/// the last round trip's bodies for the bit-exactness check.
pub fn timed_round_trip(bodies: &[Body]) -> (f64, Result<Vec<Body>, String>) {
    let mut last = Err("not run".to_string());
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            last = std::hint::black_box(round_trip(bodies));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(&times), last)
}

const REPEATS: usize = 5;
