//! Fixture: exactly one `dead-surface` finding — a `pub fn` only test
//! code calls. A `pub fn` non-test code calls, and an uncalled one kept
//! with an allow, must NOT fire; without its allow, the uncalled one
//! fires too.

pub fn called() -> u32 {
    1
}

pub fn called_only_from_tests() -> u32 {
    2
}

// lint: allow(dead-surface, the fixture's kept entry point)
pub fn kept() -> u32 {
    3
}

fn caller() -> u32 {
    called()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        assert_eq!(super::called_only_from_tests(), 2);
    }
}
