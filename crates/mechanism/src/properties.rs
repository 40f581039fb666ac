//! Qualitative mechanism properties (the rows of Table I).

/// The four qualitative properties the paper compares in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MechanismProperties {
    /// The search engine cannot link a query to the identity of its sender.
    pub unlinkability: bool,
    /// The search engine cannot tell real queries apart from fake ones.
    pub indistinguishability: bool,
    /// The user receives the same results as an unprotected search.
    pub accuracy: bool,
    /// The design scales to many users without centralized choke points or
    /// being blocked by engine rate limiting.
    pub scalability: bool,
}

impl std::fmt::Display for MechanismProperties {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mark = |b: bool| if b { "yes" } else { "no" };
        write!(
            f,
            "unlinkability={} indistinguishability={} accuracy={} scalability={}",
            mark(self.unlinkability),
            mark(self.indistinguishability),
            mark(self.accuracy),
            mark(self.scalability)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_and_count() {
        let p = MechanismProperties {
            unlinkability: true,
            indistinguishability: false,
            accuracy: true,
            scalability: true,
        };
        assert_eq!(
            p.to_string(),
            "unlinkability=yes indistinguishability=no accuracy=yes scalability=yes"
        );
    }
}
