//! Cascade data model, synthetic datasets, features and statistics for the
//! CasCN reproduction.
//!
//! Implements Section III-A of the paper (evolving cascade DAGs, observation
//! windows, increment-size labels; the Fig. 3 snapshot sequence is built by
//! the model's preprocessing, `cascn::preprocess`), the Section V-A datasets
//! (via seeded synthetic stand-ins for Sina Weibo and HEP-PH — see
//! `DESIGN.md` §3 for the substitution rationale), the Section V-B
//! hand-crafted features, and the statistics behind Table II and
//! Figures 4, 5 and 8.
//!
//! # Example
//!
//! ```
//! use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
//!
//! let dataset = WeiboGenerator::new(WeiboConfig {
//!     num_cascades: 50,
//!     seed: 7,
//!     ..WeiboConfig::default()
//! })
//! .generate();
//! assert_eq!(dataset.cascades.len(), 50);
//!
//! let observed = dataset.cascades[0].observe(3600.0);
//! let _label = dataset.cascades[0].increment_size(3600.0);
//! let _graph = observed.graph();
//! ```

mod cascade;
mod dataset;
pub mod echoflow;
pub mod features;
pub mod deephawkes_format;
pub mod format;
pub mod io;
pub mod stats;
pub mod stream;
pub mod synth;
pub mod validate;

pub use cascade::{Cascade, Event, ObservedCascade};
pub use dataset::{Dataset, Split, SplitStats};
pub use echoflow::echoflow_to_string;
pub use format::Format;
pub use stream::{parse_observe_body, CascadeStream, ObserveBody, StreamLimits};
pub use validate::{validate_events, CascadeFault, QuarantineReport, QuarantinedCascade};
