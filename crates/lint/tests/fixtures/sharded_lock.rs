//! Fixture: exactly one `lockrank` finding — a `ShardedLock` declared
//! without an annotation. The annotated ones are acquired in rank order.
//! Not compiled; lexed and analysed by `tests/lint_rules.rs`.

pub struct S {
    // lockrank: access.0
    directory: ShardedLock<u32>,
    // lockrank: buffer.1
    addresses: ShardedLock<u32>,
    keys: ShardedLock<u32>,
}

impl S {
    pub fn legal(&self) -> u32 {
        let d = self.directory.read();
        // access (50) then buffer (61): ascending.
        let mut a = self.addresses.write();
        *a += *d;
        *a
    }
}
