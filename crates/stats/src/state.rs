//! One state walker for checkpoints.
//!
//! A checkpointed type spells its state once, in a `walk` function over a
//! [`StateWalk`]. The capture walker ([`save`]) reads every field it is
//! shown and appends it to an integer record; the restore walker
//! ([`load`]) overwrites every field from the same record, in the same
//! order, failing with the field's label when the record runs short. What
//! is saved and what is restored therefore cannot drift apart.
//!
//! Unordered collections are walked in sorted order ([`StateWalk::sorted`])
//! so a capture is canonical however the collection was filled.

use std::mem::discriminant;

/// A field type stored as one checkpoint integer.
pub trait StateInt: Copy {
    /// The integer written for `self`.
    fn to_int(self) -> u64;
    /// The value an integer read back stands for, if it is in range.
    fn from_int(v: u64) -> Option<Self>;
}

macro_rules! state_int {
    ($($t:ty: |$v:ident| $from:expr;)*) => {$(
        impl StateInt for $t {
            fn to_int(self) -> u64 {
                self as u64
            }
            fn from_int($v: u64) -> Option<Self> {
                $from
            }
        }
    )*};
}

state_int! {
    u64: |v| Some(v);
    u32: |v| u32::try_from(v).ok();
    usize: |v| usize::try_from(v).ok();
    bool: |v| (v < 2).then_some(v == 1);
}

/// Visits the fields of a checkpointed value, either to capture them or
/// to overwrite them. Every visit carries the label a restore error names.
pub trait StateWalk: Sized {
    /// True when the walk overwrites fields (restore), false when it reads
    /// them (capture).
    fn loading(&self) -> bool;

    /// The one primitive: capture appends `*v`; restore overwrites it with
    /// the record's next integer.
    fn int(&mut self, label: &str, v: &mut u64) -> Result<(), String>;

    /// Visit one integer-like field; restore refuses a value out of its
    /// type's range.
    fn field<T: StateInt>(&mut self, label: &str, v: &mut T) -> Result<(), String> {
        let mut x = v.to_int();
        self.int(label, &mut x)?;
        *v = T::from_int(x).ok_or_else(|| format!("{label} {x} is out of range"))?;
        Ok(())
    }

    /// Visit `n` integers that carry no state (the unused slots of a
    /// fixed-width encoding): capture writes zeros, restore skips them.
    fn pad(&mut self, label: &str, n: usize) -> Result<(), String> {
        for _ in 0..n {
            self.int(label, &mut 0)?;
        }
        Ok(())
    }

    /// Visit an enum's variant as its index in `blanks`, which holds one
    /// value of every variant in tag order. Restore replaces `*v` with the
    /// blank its tag names; the caller then walks that variant's fields.
    fn variant<T: Copy>(&mut self, label: &str, v: &mut T, blanks: &[T]) -> Result<(), String> {
        let mut tag = blanks
            .iter()
            .position(|b| discriminant(b) == discriminant(v))
            .expect("`blanks` holds every variant") as u64;
        self.int(label, &mut tag)?;
        if self.loading() {
            *v = *blanks
                .get(tag as usize)
                .ok_or_else(|| format!("unknown {label} {tag}"))?;
        }
        Ok(())
    }

    /// Visit a list: its length, then every element through `each`.
    /// Restore rebuilds the list element by element from defaults, so a
    /// corrupt length fails where the record runs out instead of
    /// allocating for it.
    fn list<T: Default>(
        &mut self,
        label: &str,
        v: &mut Vec<T>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut n = v.len() as u64;
        self.int(label, &mut n)?;
        if self.loading() {
            v.clear();
            for _ in 0..n {
                let mut x = T::default();
                each(self, &mut x)?;
                v.push(x);
            }
        } else {
            for x in v.iter_mut() {
                each(self, x)?;
            }
        }
        Ok(())
    }

    /// Visit an unordered collection (a map's `(key, value)` entries, a
    /// set's members) as a list in sorted order: capture is canonical
    /// whatever order the collection was filled in, and restore rebuilds
    /// the collection from the list.
    fn sorted<C, T>(
        &mut self,
        label: &str,
        c: &mut C,
        each: impl FnMut(&mut Self, &mut T) -> Result<(), String>,
    ) -> Result<(), String>
    where
        C: Clone + IntoIterator<Item = T> + FromIterator<T>,
        T: Ord + Default,
    {
        let mut entries: Vec<T> = c.clone().into_iter().collect();
        entries.sort();
        self.list(label, &mut entries, each)?;
        if self.loading() {
            *c = entries.into_iter().collect();
        }
        Ok(())
    }
}

/// The capture walker: appends every visited field to a record.
pub struct Save<'a>(&'a mut Vec<u64>);

impl StateWalk for Save<'_> {
    fn loading(&self) -> bool {
        false
    }

    fn int(&mut self, _label: &str, v: &mut u64) -> Result<(), String> {
        self.0.push(*v);
        Ok(())
    }
}

/// The restore walker, the workspace's one bounds-checked integer reader:
/// overwrites every visited field with the record's next integer.
pub struct Load<'a>(std::slice::Iter<'a, u64>);

impl StateWalk for Load<'_> {
    fn loading(&self) -> bool {
        true
    }

    fn int(&mut self, label: &str, v: &mut u64) -> Result<(), String> {
        *v = *self
            .0
            .next()
            .ok_or_else(|| format!("record ends where {label} was expected"))?;
        Ok(())
    }
}

/// Append the state a capture walk visits to `out`.
pub fn save_into(out: &mut Vec<u64>, walk: impl FnOnce(&mut Save<'_>) -> Result<(), String>) {
    walk(&mut Save(out)).expect("a capture walk only reads fields");
}

/// The record a capture walk produces.
pub fn save(walk: impl FnOnce(&mut Save<'_>) -> Result<(), String>) -> Vec<u64> {
    let mut out = Vec::new();
    save_into(&mut out, walk);
    out
}

/// Restore state from `record` through a walk, which must consume the
/// record exactly; `what` names the record in the trailing-integer error.
pub fn load(
    record: &[u64],
    what: &str,
    walk: impl FnOnce(&mut Load<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut w = Load(record.iter());
    walk(&mut w)?;
    match w.0.len() {
        0 => Ok(()),
        extra => Err(format!("{extra} trailing integer(s) after {what}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    enum Shape {
        #[default]
        Dot,
        Line {
            len: u32,
        },
    }

    #[derive(Debug, Default, PartialEq)]
    struct Thing {
        a: u64,
        flag: bool,
        items: Vec<u32>,
        map: HashMap<u32, u64>,
        shape: Shape,
    }

    impl Thing {
        fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
            w.field("a", &mut self.a)?;
            w.field("flag", &mut self.flag)?;
            w.list("item count", &mut self.items, |w, x| w.field("item", x))?;
            w.sorted("map size", &mut self.map, |w, (k, v)| {
                w.field("map key", k)?;
                w.field("map value", v)
            })?;
            let blanks = [Shape::Dot, Shape::Line { len: 0 }];
            w.variant("shape tag", &mut self.shape, &blanks)?;
            match &mut self.shape {
                Shape::Dot => w.pad("shape length", 1),
                Shape::Line { len } => w.field("shape length", len),
            }
        }
    }

    #[test]
    fn save_then_load_is_a_fixed_point() {
        let mut t = Thing {
            a: 7,
            flag: true,
            items: vec![3, 1, 2],
            map: [(9, 90), (1, 10), (5, 50)].into_iter().collect(),
            shape: Shape::Line { len: 4 },
        };
        let rec = save(|w| t.walk(w));
        // Lists keep their order; the map is walked sorted by key.
        assert_eq!(rec, vec![7, 1, 3, 3, 1, 2, 3, 1, 10, 5, 50, 9, 90, 1, 4]);
        let mut back = Thing::default();
        load(&rec, "the thing", |w| back.walk(w)).unwrap();
        assert_eq!(back, t);
        assert_eq!(save(|w| back.walk(w)), rec);
    }

    #[test]
    fn restore_errors_name_the_field() {
        let mut t = Thing::default();
        let rec = save(|w| t.walk(w));
        let err = load(&rec[..rec.len() - 1], "the thing", |w| t.walk(w)).unwrap_err();
        assert!(err.contains("shape length"), "{err}");
        let mut long = rec.clone();
        long.push(0);
        let err = load(&long, "the thing", |w| t.walk(w)).unwrap_err();
        assert_eq!(err, "1 trailing integer(s) after the thing");
        let mut bad_flag = rec.clone();
        bad_flag[1] = 2;
        let err = load(&bad_flag, "the thing", |w| t.walk(w)).unwrap_err();
        assert_eq!(err, "flag 2 is out of range");
        let mut bad_tag = rec.clone();
        let n = bad_tag.len();
        bad_tag[n - 2] = 7;
        let err = load(&bad_tag, "the thing", |w| t.walk(w)).unwrap_err();
        assert_eq!(err, "unknown shape tag 7");
        // A huge list length fails where the record ends, allocating nothing.
        let err = load(&[0, 0, u64::MAX], "the thing", |w| t.walk(w)).unwrap_err();
        assert!(err.contains("item"), "{err}");
    }
}
