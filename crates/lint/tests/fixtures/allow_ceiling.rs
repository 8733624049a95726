//! Fixture: two valid allows and no finding of their own — one allow
//! over a ceiling of one fires `allow-ceiling` once.

pub fn first(v: Option<u32>) -> u32 {
    // lint: allow(error-hygiene, the fixture's first allow site)
    v.unwrap()
}

pub fn second(v: Option<u32>) -> u32 {
    // lint: allow(error-hygiene, the fixture's second allow site)
    v.unwrap()
}
