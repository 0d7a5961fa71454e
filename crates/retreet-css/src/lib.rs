//! # retreet-css — the CSS-minification case-study substrate (§5, Fig. 8)
//!
//! The paper's third case study fuses three CSS-minification traversals over
//! the (binarized) AST of a style sheet.  This crate provides everything that
//! experiment needs, built from scratch:
//!
//! * [`css`] — a tokenizer/parser for a practical subset of CSS, a
//!   serializer, and a deterministic synthetic style-sheet generator
//!   (substituting for production style sheets; see `crates/README.md`,
//!   "The substrate");
//! * [`minify`] — the left-child/right-sibling binarization of the AST, the
//!   three passes (`ConvertValues`, `MinifyFont`, `ReduceInit`) as tree
//!   visitors, their fused single-pass form, and a flat reference
//!   implementation they are validated against;
//! * [`analysis_model`] — a bridge that converts a style sheet into the
//!   integer-field `ValueTree` the analysis engines run on, so the fusion
//!   verified by `retreet-analysis` (over the corpus programs of Fig. 8) is
//!   exactly the fusion executed here.
//!
//! ```
//! use retreet_css::css::generate_stylesheet;
//! use retreet_css::minify::{minify_fused, minify_unfused};
//!
//! let sheet = generate_stylesheet(32, 7);
//! assert_eq!(minify_fused(&sheet), minify_unfused(&sheet));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis_model;
pub mod css;
pub mod minify;

pub use css::{generate_stylesheet, parse_css, CssParseError, Declaration, Rule, Stylesheet};
pub use minify::{minify_fused, minify_reference, minify_unfused, CssNode};
