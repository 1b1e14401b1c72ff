//! A minimal binary codec for persisted records.
//!
//! The durable store (`strata-store`) frames, checksums, and files records;
//! this module defines how the *language-level* values inside those records
//! are laid out. The format is deliberately primitive — fixed-width
//! little-endian integers and length-prefixed byte strings — because the
//! build environment is offline and the workspace vendors no serialization
//! crates.
//!
//! Symbols are encoded by **name**, never by interner id: interner ids are
//! assigned in first-intern order and do not survive a process restart.
//!
//! Layouts (all integers little-endian):
//!
//! ```text
//! str   ::= len:u32 utf8-bytes
//! value ::= 0x00 str            (symbol)
//!         | 0x01 i64            (integer)
//! fact  ::= rel:str arity:u32 value*
//! ```

use crate::atom::Fact;
use crate::symbol::Symbol;
use crate::term::Value;

/// A decoding failure: truncated input or an invalid tag/payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Offset at which decoding failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for WireError {}

/// Appends a `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` (little-endian two's complement).
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string too long for wire format"));
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed byte blob.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, u32::try_from(b.len()).expect("blob too long for wire format"));
    buf.extend_from_slice(b);
}

/// Appends one [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Sym(s) => {
            buf.push(0);
            put_str(buf, s.as_str());
        }
        Value::Int(i) => {
            buf.push(1);
            put_i64(buf, *i);
        }
    }
}

/// Appends one fact given as its relation and a borrowed argument tuple —
/// [`put_fact`]'s layout for tuples that still sit in a [`Relation`] arena.
///
/// [`Relation`]: crate::storage::Relation
pub fn put_tuple(buf: &mut Vec<u8>, rel: Symbol, args: &[Value]) {
    put_str(buf, rel.as_str());
    put_u32(buf, args.len() as u32);
    for v in args {
        put_value(buf, v);
    }
}

/// Appends one [`Fact`].
pub fn put_fact(buf: &mut Vec<u8>, f: &Fact) {
    put_tuple(buf, f.rel, &f.args);
}

/// One relation's tuples, borrowed from wherever they are stored.
pub type RelTuples<'a> = (Symbol, Vec<&'a [Value]>);

/// Puts `rels` into the canonical order of persisted state: relations by
/// name, each relation's tuples by [`tuple_wire_cmp`]. Flattened, that is
/// exactly the [`fact_wire_cmp`] order — identical states serialize to
/// identical bytes — reached by comparing each relation name once and
/// moving pointers instead of cloned facts.
pub fn sort_relations(rels: &mut [RelTuples<'_>]) {
    rels.sort_unstable_by_key(|(rel, _)| rel.as_str());
    for (_, tuples) in rels {
        tuples.sort_unstable_by(|a, b| tuple_wire_cmp(a, b));
    }
}

/// Appends every tuple of `rels` as a count-prefixed fact list, in the order
/// given.
pub fn put_relations(buf: &mut Vec<u8>, rels: &[RelTuples<'_>]) {
    let count: usize = rels.iter().map(|(_, tuples)| tuples.len()).sum();
    put_u32(buf, u32::try_from(count).expect("too many facts for wire format"));
    for (rel, tuples) in rels {
        for t in tuples {
            put_tuple(buf, *rel, t);
        }
    }
}

/// A process-independent total order on values: integers (numeric) before
/// symbols (by name). Allocation-free and lock-free — this runs inside the
/// sort of every snapshot program section and support dump.
pub fn value_wire_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Sym(x), Value::Sym(y)) if x == y => std::cmp::Ordering::Equal,
        (Value::Sym(x), Value::Sym(y)) => x.as_str().cmp(y.as_str()),
        (Value::Int(_), Value::Sym(_)) => std::cmp::Ordering::Less,
        (Value::Sym(_), Value::Int(_)) => std::cmp::Ordering::Greater,
    }
}

/// [`value_wire_cmp`] lifted to argument tuples: position by position, a
/// shorter tuple first on a shared prefix.
pub fn tuple_wire_cmp(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        match value_wire_cmp(x, y) {
            std::cmp::Ordering::Equal => {}
            ord => return ord,
        }
    }
    a.len().cmp(&b.len())
}

/// A process-independent total order on facts: by relation *name*, then by
/// argument content ([`tuple_wire_cmp`]). `Fact`'s derived `Ord` goes
/// through interner ids, which differ across processes.
pub fn fact_wire_cmp(a: &Fact, b: &Fact) -> std::cmp::Ordering {
    if a.rel != b.rel {
        // Distinct symbols have distinct names: never `Equal`.
        return a.rel.as_str().cmp(b.rel.as_str());
    }
    tuple_wire_cmp(&a.args, &b.args)
}

/// The fewest bytes one encoded fact takes: an empty relation name and a
/// zero arity.
pub const MIN_FACT_BYTES: usize = 8;

/// A cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, msg: &'static str) -> WireError {
        WireError { at: self.pos, msg }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.err("length overflow"))?;
        if end > self.buf.len() {
            return Err(self.err("truncated input"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` element count for a list whose elements take at least
    /// `min_item` bytes each, refusing a count that could not fit in the
    /// input left: a corrupt count fails here, before anything is sized
    /// from it.
    pub fn get_count(&mut self, min_item: usize) -> Result<usize, WireError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_item.max(1)) > self.buf.len() - self.pos {
            return Err(self.err("count exceeds remaining input"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid UTF-8"))
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads one [`Value`].
    pub fn get_value(&mut self) -> Result<Value, WireError> {
        match self.get_u8()? {
            0 => Ok(Value::sym(&self.get_str()?)),
            1 => Ok(Value::Int(self.get_i64()?)),
            _ => Err(self.err("invalid value tag")),
        }
    }

    /// Reads one [`Fact`].
    pub fn get_fact(&mut self) -> Result<Fact, WireError> {
        let rel = self.get_str()?;
        let arity = self.get_u32()? as usize;
        if arity > self.buf.len() - self.pos {
            // Each value takes at least one byte: cheap sanity bound that
            // stops corrupt arities from attempting huge allocations.
            return Err(self.err("fact arity exceeds remaining input"));
        }
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            args.push(self.get_value()?);
        }
        Ok(Fact::new(rel.as_str(), args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{parse_facts, Database};

    /// Every relation of `db` with its live tuples, borrowed from the arenas.
    fn database_relations(db: &Database) -> Vec<RelTuples<'_>> {
        db.relations().map(|(sym, rel)| (sym, rel.iter().collect())).collect()
    }

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_i64(&mut buf, -42);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_blob().unwrap(), vec![1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn facts_round_trip_by_name_not_id() {
        let f = Fact::new("weird rel.name", vec![Value::sym("a b"), Value::int(-5)]);
        let mut buf = Vec::new();
        put_fact(&mut buf, &f);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_fact().unwrap(), f);
        assert!(r.is_at_end());
    }

    #[test]
    fn store_round_trip_and_stable_bytes() {
        let put_store = |buf: &mut Vec<u8>, db: &Database| {
            let mut rels = database_relations(db);
            sort_relations(&mut rels);
            put_relations(buf, &rels);
        };
        let db = Database::from_facts(parse_facts("e(1, 2). e(2, 3). p(a)."));
        let mut buf = Vec::new();
        put_store(&mut buf, &db);
        let mut r = Reader::new(&buf);
        let n = r.get_count(MIN_FACT_BYTES).unwrap();
        let out = Database::from_facts((0..n).map(|_| r.get_fact().unwrap()));
        assert!(r.is_at_end());
        assert_eq!(out, db);
        // Identical state ⇒ identical bytes, regardless of insertion order.
        let db2 = Database::from_facts(parse_facts("p(a). e(2, 3). e(1, 2)."));
        let mut buf2 = Vec::new();
        put_store(&mut buf2, &db2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn sort_relations_equals_the_flat_fact_order_on_adversarial_names() {
        // Names that agree on a long prefix, names that are prefixes of one
        // another, embedded NULs, the empty name, integer extremes, mixed
        // columns and first-column ties.
        let names =
            ["", "a", "a\0", "a\0b", "abcdefgh", "abcdefghi", "abcdefgh\0", "abcdefgi", "é", "zz"];
        let ints = [i64::MIN, -1, 0, 1, 10, i64::MAX];
        let mut values: Vec<Value> = names.iter().map(|n| Value::sym(n)).collect();
        values.extend(ints.iter().map(|&i| Value::int(i)));
        let mut db = Database::new();
        for (i, &x) in values.iter().enumerate() {
            db.insert(Fact::new("abcdefgh_one", vec![x]));
            db.insert(Fact::new("abcdefgh", vec![x, values[(i * 7 + 3) % values.len()]]));
            for &y in &values[..4] {
                db.insert(Fact::new("abcdefgh_two", vec![x, y]));
            }
        }
        db.insert(Fact::prop("nullary"));
        // The reference: clone every fact, sort flat, resolving both names
        // on every comparison.
        let mut flat: Vec<Fact> = db.iter_facts().collect();
        flat.sort_by(|a, b| {
            let by_value = |x: &Value, y: &Value| match (x, y) {
                (Value::Int(x), Value::Int(y)) => x.cmp(y),
                (Value::Sym(x), Value::Sym(y)) => x.as_str().cmp(y.as_str()),
                (Value::Int(_), Value::Sym(_)) => std::cmp::Ordering::Less,
                (Value::Sym(_), Value::Int(_)) => std::cmp::Ordering::Greater,
            };
            a.rel.as_str().cmp(b.rel.as_str()).then_with(|| {
                let args = a.args.iter().zip(b.args.iter());
                args.map(|(x, y)| by_value(x, y))
                    .find(|o| o.is_ne())
                    .unwrap_or(a.args.len().cmp(&b.args.len()))
            })
        });
        let mut rels = database_relations(&db);
        sort_relations(&mut rels);
        let sorted: Vec<Fact> = rels
            .iter()
            .flat_map(|(rel, tuples)| tuples.iter().map(|&t| Fact::new(*rel, t)))
            .collect();
        assert_eq!(sorted, flat);
        assert!(flat.windows(2).all(|w| fact_wire_cmp(&w[0], &w[1]).is_lt()));
    }

    #[test]
    fn truncated_and_corrupt_input_reported() {
        let mut buf = Vec::new();
        put_fact(&mut buf, &Fact::parse("p(1)").unwrap());
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).get_fact().is_err(), "cut {cut}");
        }
        let mut r = Reader::new(&[9]);
        assert!(r.get_value().is_err(), "invalid tag");
        // Corrupt arity must not allocate absurdly.
        let mut bad = Vec::new();
        put_str(&mut bad, "p");
        put_u32(&mut bad, u32::MAX);
        assert!(Reader::new(&bad).get_fact().is_err());
        // So must a corrupt element count.
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0]);
        assert!(r.get_count(1).is_err());
        let mut ok = Vec::new();
        put_u32(&mut ok, 2);
        ok.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&ok).get_count(4).unwrap(), 2);
        assert!(Reader::new(&ok).get_count(5).is_err(), "2 × 5 bytes do not fit in 8");
    }

    #[test]
    fn wire_cmp_is_process_independent_shape() {
        let a = Fact::parse("a(zz)").unwrap();
        let b = Fact::parse("b(aa)").unwrap();
        assert_eq!(fact_wire_cmp(&a, &b), std::cmp::Ordering::Less);
        // Ints sort before symbols at the same position, and numerically.
        let i = Fact::parse("c(1)").unwrap();
        let s = Fact::parse("c(x)").unwrap();
        assert_eq!(fact_wire_cmp(&i, &s), std::cmp::Ordering::Less);
        assert_eq!(fact_wire_cmp(&i, &i), std::cmp::Ordering::Equal);
        let two = Fact::parse("c(2)").unwrap();
        let ten = Fact::parse("c(10)").unwrap();
        assert_eq!(fact_wire_cmp(&two, &ten), std::cmp::Ordering::Less);
        // Shorter argument lists sort first on a shared prefix.
        let short = Fact::parse("c(1)").unwrap();
        let long = Fact::parse("c(1, 2)").unwrap();
        assert_eq!(fact_wire_cmp(&short, &long), std::cmp::Ordering::Less);
    }
}
