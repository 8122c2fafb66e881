//! Host package for the cross-crate integration tests in the repository-root
//! `tests/` directory, plus the shared kill/resume test-support helpers
//! used by those tests and by the `scalefbp-bench` programs.

pub mod testsupport;
