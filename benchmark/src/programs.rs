//! The three benchmark-owned programs, their wire formats, and a host-side
//! oracle for each.
//!
//! * `fwd` — one ingress exact table on `dst` → `SetEgress`; the central
//!   region is empty, so this is bare forwarding.
//! * `agg` — ingress steers by key (`SetCentralPipe`), the central region
//!   does one `RegRmw Add` with fetch into a 2²⁰-cell 64-bit register and
//!   replies to the collector port named in the frame. The header carries
//!   the two scratch fields `lang::fabric::FabricSpec` needs, so the same
//!   program places onto the fabric.
//! * `kv` — one 2¹⁶-entry exact table matched by a 16-wide key array in one
//!   packet (paper §3.2): a lane hit writes the cached value, every packet
//!   continues to the server port. No registers.

use crate::stats::{fnv_u64, FNV_OFFSET};
use adcp_lang::{
    deposit_bits, extract_bits, ActionDef, ActionOp, Entry, FieldDef, FieldId, FieldRef, HeaderDef,
    HeaderId, KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder,
    RegAluOp, RegId, Region, RegisterDef, TableDef,
};

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

// ------------------------------------------------------------------ fwd

/// Ports the `fwd` table routes to (`dst` d → port d).
pub const FWD_PORTS: u64 = 8;
/// `fwd` frame length: the Ethernet minimum.
pub const FWD_FRAME: usize = 64;

/// `fwd`: header {dst:16, seq:48}.
pub fn fwd_program() -> Program {
    let mut b = ProgramBuilder::new("bench-fwd");
    let h = b.header(HeaderDef::new(
        "fwd",
        vec![FieldDef::scalar("dst", 16), FieldDef::scalar("seq", 48)],
    ));
    b.parser(ParserSpec::single(h));
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(0),
            kind: MatchKind::Exact,
            bits: 16,
        }),
        actions: vec![
            ActionDef::new("fwd", vec![ActionOp::SetEgress(Operand::Param(0))]),
            ActionDef::new("drop", vec![ActionOp::Drop]),
        ],
        default_action: 1,
        default_params: vec![],
        size: 64,
    });
    b.build()
}

/// Entries of the `route` table.
pub fn fwd_entries() -> Vec<Entry> {
    (0..FWD_PORTS)
        .map(|d| Entry {
            value: MatchValue::Exact(d),
            action: 0,
            params: vec![d],
        })
        .collect()
}

/// One `fwd` frame.
pub fn fwd_frame(dst: u64, seq: u64) -> Vec<u8> {
    let mut buf = vec![0u8; FWD_FRAME];
    deposit_bits(&mut buf, 0, 16, dst);
    deposit_bits(&mut buf, 16, 48, seq);
    buf
}

/// `fwd` oracle: the frame leaves unchanged on the port its `dst` names.
pub fn fwd_check(port: u16, data: &[u8], dst: u64, seq: u64) -> bool {
    port as u64 == dst && data == fwd_frame(dst, seq).as_slice()
}

// ------------------------------------------------------------------ agg

/// log2 of the `agg` key space (register cells, fabric steer-key space).
pub const AGG_KEY_BITS: u32 = 20;
/// `agg` key space.
pub const AGG_KEYS: u64 = 1 << AGG_KEY_BITS;
/// `agg` frame length.
pub const AGG_FRAME: usize = 128;
/// The `agg` accumulator register.
pub const AGG_REG: RegId = RegId(0);

const A_DST: u16 = 0;
const A_KEY: u16 = 1;
const A_VAL: u16 = 2;
const A_FETCH: u16 = 3;
const A_PHASE: u16 = 4;
const A_GK: u16 = 5;

/// Field the fabric placement steers on (the register index).
pub fn agg_steer_field() -> FieldRef {
    fr(A_KEY)
}
/// Scratch field carrying the fabric phase.
pub fn agg_phase_field() -> FieldRef {
    fr(A_PHASE)
}
/// Scratch field carrying the fabric gated key.
pub fn agg_gk_field() -> FieldRef {
    fr(A_GK)
}

/// `agg`: header {dst:16, key:32, val:32, fetch:64, fphase:8, fgk:32}
/// (23 bytes). With `recirculate` the ingress action also asks for the RMT
/// recirculation pass that reaches the central tables there; everything
/// else is identical on every target.
pub fn agg_program(recirculate: bool) -> Program {
    let mut b = ProgramBuilder::new("bench-agg");
    let h = b.header(HeaderDef::new(
        "agg",
        vec![
            FieldDef::scalar("dst", 16),
            FieldDef::scalar("key", 32),
            FieldDef::scalar("val", 32),
            FieldDef::scalar("fetch", 64),
            FieldDef::scalar("fphase", 8),
            FieldDef::scalar("fgk", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let acc = b.register(RegisterDef::new("acc", AGG_KEYS as u32, 64));
    let mut steer = vec![ActionOp::SetCentralPipe(Operand::Field(fr(A_KEY)))];
    if recirculate {
        steer.push(ActionOp::Recirculate);
    }
    b.table(TableDef {
        name: "steer".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new("steer", steer)],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.table(TableDef {
        name: "accumulate".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "add",
            vec![
                ActionOp::RegRmw {
                    reg: acc,
                    index: Operand::Field(fr(A_KEY)),
                    op: RegAluOp::Add,
                    value: Operand::Field(fr(A_VAL)),
                    fetch: Some(fr(A_FETCH)),
                },
                ActionOp::SetEgress(Operand::Field(fr(A_DST))),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

/// Spread popularity ranks over the key space (odd multiplier: a bijection
/// mod 2²⁰), the way a hashed key would be: hot keys land on different
/// register pages, central pipes and fabric leaves.
pub fn agg_key_of_rank(rank: u64) -> u64 {
    rank.wrapping_mul(0x9_E375) & (AGG_KEYS - 1)
}

/// The value every packet of `key` adds — constant per key, so the set of
/// fetched values per key is order-independent.
pub fn agg_val_of_key(key: u64) -> u64 {
    (key & 0xff) + 1
}

/// One `agg` frame.
pub fn agg_frame(dst: u64, key: u64) -> Vec<u8> {
    let mut buf = vec![0u8; AGG_FRAME];
    deposit_bits(&mut buf, 0, 16, dst);
    deposit_bits(&mut buf, 16, 32, key);
    deposit_bits(&mut buf, 48, 32, agg_val_of_key(key));
    buf
}

/// Streaming `agg` oracle. Every packet of key `k` adds `v = val(k)`, so
/// after `n` packets the cell holds `n·v` and the fetched pre-op values
/// are exactly `{0, v, …, (n−1)·v}` in some order. The oracle keeps, per
/// key, how many packets went in, how many came back and the sum of what
/// they fetched.
pub struct AggOracle {
    injected: Vec<u32>,
    seen: Vec<u32>,
    fetch_sum: Vec<u64>,
}

impl AggOracle {
    /// Fresh oracle.
    pub fn new() -> Self {
        AggOracle {
            injected: vec![0; AGG_KEYS as usize],
            seen: vec![0; AGG_KEYS as usize],
            fetch_sum: vec![0; AGG_KEYS as usize],
        }
    }

    /// A packet of `key` was injected.
    pub fn on_inject(&mut self, key: u64) {
        self.injected[key as usize] += 1;
    }

    /// Check one delivered frame; `dst` is the port its request named.
    pub fn on_deliver(&mut self, port: u16, data: &[u8], dst: u64) -> bool {
        let (Some(d), Some(key), Some(val), Some(fetch), Some(scratch)) = (
            extract_bits(data, 0, 16),
            extract_bits(data, 16, 32),
            extract_bits(data, 48, 32),
            extract_bits(data, 80, 64),
            extract_bits(data, 144, 40),
        ) else {
            return false;
        };
        if key >= AGG_KEYS {
            return false;
        }
        let v = agg_val_of_key(key);
        let k = key as usize;
        self.seen[k] += 1;
        self.fetch_sum[k] += fetch;
        port as u64 == dst
            && d == dst
            && val == v
            && scratch == 0
            && data.len() == AGG_FRAME
            && fetch % v == 0
            && fetch / v < self.injected[k] as u64
    }

    /// End-of-run audit against the merged register (`cell(k)` reads key
    /// `k`'s cell from whichever pipe or leaf owns it). Returns the number
    /// of keys whose books do not close, and a digest of the cells.
    pub fn finish(&self, cell: impl Fn(u64) -> u64) -> (u64, u64) {
        let mut bad = 0;
        let mut digest = FNV_OFFSET;
        for k in 0..AGG_KEYS {
            let n = self.injected[k as usize] as u64;
            let v = agg_val_of_key(k);
            let got = cell(k);
            let ok = self.seen[k as usize] as u64 == n
                && self.fetch_sum[k as usize] == v * n * n.saturating_sub(1) / 2
                && got == n * v;
            bad += !ok as u64;
            if got != 0 {
                digest = fnv_u64(fnv_u64(digest, k), got);
            }
        }
        (bad, digest)
    }
}

// ------------------------------------------------------------------- kv

/// Keys per `kv` packet (the array width).
pub const KV_WIDTH: usize = 16;
/// Cache entries installed: the 2¹⁶ most popular keys.
pub const KV_ENTRIES: u64 = 1 << 16;
/// Key space the requests draw from.
pub const KV_KEYS: u64 = 1 << 18;
/// Port every `kv` packet continues to.
pub const KV_SERVER_PORT: u16 = 8;
/// `kv` frame length: op byte + 16 keys + 16 value lanes + 3 pad bytes.
pub const KV_FRAME: usize = 1 + KV_WIDTH * 8 + 3;

/// `kv`: header {op:8, keys:16×32, vals:16×32}.
pub fn kv_program() -> Program {
    let mut b = ProgramBuilder::new("bench-kv");
    let h = b.header(HeaderDef::new(
        "kv",
        vec![
            FieldDef::scalar("op", 8),
            FieldDef::array("keys", 32, KV_WIDTH as u16),
            FieldDef::array("vals", 32, KV_WIDTH as u16),
        ],
    ));
    b.parser(ParserSpec::single(h));
    b.table(TableDef {
        name: "cache".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(1),
            kind: MatchKind::Exact,
            bits: 32,
        }),
        actions: vec![
            // Lane semantics: a hit on keys[i] fills vals[i].
            ActionDef::new(
                "hit",
                vec![ActionOp::Set {
                    dst: fr(2),
                    src: Operand::Param(0),
                }],
            ),
            ActionDef::nop(),
        ],
        default_action: 1,
        default_params: vec![],
        size: KV_ENTRIES as u32,
    });
    b.table(TableDef {
        name: "to_server".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "fwd",
            vec![ActionOp::SetEgress(Operand::Const(KV_SERVER_PORT as u64))],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

/// Value cached for key `k` (nonzero, so a hit is visible).
pub fn kv_value(k: u64) -> u64 {
    (k + 1) & 0xFFFF_FFFF
}

/// Entries of the `cache` table: keys `0..KV_ENTRIES` (Zipf rank 0 is the
/// hottest key, so these are the most popular ones).
pub fn kv_entries(n: u64) -> impl Iterator<Item = Entry> {
    (0..n).map(|k| Entry {
        value: MatchValue::Exact(k),
        action: 0,
        params: vec![kv_value(k)],
    })
}

/// One `kv` GET frame.
pub fn kv_frame(keys: &[u64; KV_WIDTH]) -> Vec<u8> {
    let mut buf = vec![0u8; KV_FRAME];
    for (i, k) in keys.iter().enumerate() {
        buf[1 + i * 4..5 + i * 4].copy_from_slice(&(*k as u32).to_be_bytes());
    }
    buf
}

/// `kv` oracle for one delivered frame: it left on the server port, its
/// keys are the ones sent, and each value lane holds the cached value iff
/// the key is one of the `entries` installed.
pub fn kv_check(port: u16, data: &[u8], keys: &[u64; KV_WIDTH], entries: u64) -> bool {
    if port != KV_SERVER_PORT || data.len() != KV_FRAME {
        return false;
    }
    let word = |off: usize| u32::from_be_bytes(data[off..off + 4].try_into().unwrap()) as u64;
    keys.iter().enumerate().all(|(i, &k)| {
        let want = if k < entries { kv_value(k) } else { 0 };
        word(1 + i * 4) == k && word(1 + KV_WIDTH * 4 + i * 4) == want
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwd_oracle_small_case() {
        let f = fwd_frame(3, 7);
        assert_eq!(&f[..8], &[0, 3, 0, 0, 0, 0, 0, 7]);
        assert!(fwd_check(3, &f, 3, 7));
        assert!(!fwd_check(4, &f, 3, 7), "wrong port");
        let mut g = f.clone();
        g[20] ^= 1;
        assert!(!fwd_check(3, &g, 3, 7), "payload touched");
    }

    /// What the switch would send back for a packet of `key` that fetched
    /// `fetch`.
    fn agg_reply(dst: u64, key: u64, fetch: u64) -> Vec<u8> {
        let mut f = agg_frame(dst, key);
        deposit_bits(&mut f, 80, 64, fetch);
        f
    }

    #[test]
    fn agg_oracle_small_case() {
        // Key 2 adds 3 per packet. Three packets: fetches {0,3,6} in any
        // order, final cell 9.
        assert_eq!(agg_val_of_key(2), 3);
        let mut o = AggOracle::new();
        for _ in 0..3 {
            o.on_inject(2);
        }
        for fetch in [3, 0, 6] {
            assert!(o.on_deliver(9, &agg_reply(9, 2, fetch), 9));
        }
        let cell = |k: u64| if k == 2 { 9 } else { 0 };
        assert_eq!(o.finish(cell).0, 0);
        assert_eq!(o.finish(|_| 0).0, 1, "a lost update shows in the cell");
        assert_ne!(
            o.finish(cell).1,
            o.finish(|_| 0).1,
            "the digest sees the cells"
        );

        // A duplicated fetch (lost increment) keeps the count but breaks
        // the sum.
        let mut o = AggOracle::new();
        for _ in 0..3 {
            o.on_inject(2);
        }
        for fetch in [0, 3, 3] {
            o.on_deliver(9, &agg_reply(9, 2, fetch), 9);
        }
        assert_eq!(o.finish(cell).0, 1);

        // Fetch beyond what was injected, wrong port, dirty scratch field.
        let mut o = AggOracle::new();
        o.on_inject(2);
        assert!(!o.on_deliver(9, &agg_reply(9, 2, 3), 9));
        assert!(!o.on_deliver(8, &agg_reply(9, 2, 0), 9));
        let mut dirty = agg_reply(9, 2, 0);
        deposit_bits(&mut dirty, 144, 8, 4);
        assert!(!o.on_deliver(9, &dirty, 9));
    }

    #[test]
    fn agg_keys_are_a_bijection() {
        let mut seen = vec![false; AGG_KEYS as usize];
        for r in 0..AGG_KEYS {
            let k = agg_key_of_rank(r) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn kv_oracle_small_case() {
        let mut keys = [100u64; KV_WIDTH];
        keys[0] = 5; // cached
        keys[1] = 70_000; // beyond the installed entries
        let mut reply = kv_frame(&keys);
        let lane = |i: usize| 1 + KV_WIDTH * 4 + i * 4;
        for (i, k) in keys.iter().enumerate() {
            if *k < KV_ENTRIES {
                reply[lane(i)..lane(i) + 4].copy_from_slice(&(kv_value(*k) as u32).to_be_bytes());
            }
        }
        assert_eq!(kv_value(5), 6);
        assert!(kv_check(KV_SERVER_PORT, &reply, &keys, KV_ENTRIES));
        assert!(!kv_check(0, &reply, &keys, KV_ENTRIES), "wrong port");
        // A miss lane that got a value, and a hit lane left empty.
        let mut bad = reply.clone();
        bad[lane(1) + 3] = 1;
        assert!(!kv_check(KV_SERVER_PORT, &bad, &keys, KV_ENTRIES));
        let mut bad = reply.clone();
        bad[lane(0)..lane(0) + 4].fill(0);
        assert!(!kv_check(KV_SERVER_PORT, &bad, &keys, KV_ENTRIES));
    }
}
