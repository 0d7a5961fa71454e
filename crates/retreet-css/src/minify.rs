//! The three minification traversals of Fig. 8 — `ConvertValues`,
//! `MinifyFont`, `ReduceInit` — implemented over the left-child/right-sibling
//! binarization of the CSS AST, plus their fused single-pass form and the
//! flat (per-declaration) reference implementation.
//!
//! The traversals mirror cssnano-style passes:
//!
//! * **ConvertValues** rewrites unit-bearing values to a shorter equivalent
//!   form (`100ms` → `.1s`),
//! * **MinifyFont** canonicalizes symbolic font weights (`normal` → `400`,
//!   `bold` → `700`),
//! * **ReduceInit** replaces `initial` with the property's shorter concrete
//!   initial value where one is known (`min-width: initial` → `min-width: 0`).

use retreet_runtime::tree::TreeNode;

use crate::css::{Declaration, Stylesheet};

/// The payload of an LCRS-binarized CSS AST node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CssNode {
    /// The style-sheet root.
    Root,
    /// A rule node (selector).
    Rule(String),
    /// A declaration node.
    Declaration(Declaration),
}

/// Converts a style sheet into a left-child/right-sibling binary tree:
/// a node's left child is its first child in the original n-ary AST and its
/// right child is its next sibling (the conversion described in §5 for making
/// CSS ASTs fit MONA's binary trees).
pub fn to_lcrs(sheet: &Stylesheet) -> TreeNode<CssNode> {
    let mut root = TreeNode::leaf(CssNode::Root);
    // Build the rule chain right-to-left so each rule's right child is the
    // next rule.
    let mut rule_chain: Option<TreeNode<CssNode>> = None;
    for rule in sheet.rules.iter().rev() {
        // Declaration chain for this rule.
        let mut decl_chain: Option<TreeNode<CssNode>> = None;
        for decl in rule.declarations.iter().rev() {
            let mut node = TreeNode::leaf(CssNode::Declaration(decl.clone()));
            node.right = decl_chain.take().map(Box::new);
            decl_chain = Some(node);
        }
        let mut rule_node = TreeNode::leaf(CssNode::Rule(rule.selector.clone()));
        rule_node.left = decl_chain.map(Box::new);
        rule_node.right = rule_chain.take().map(Box::new);
        rule_chain = Some(rule_node);
    }
    root.left = rule_chain.map(Box::new);
    root
}

/// Converts an LCRS tree back into a style sheet (inverse of [`to_lcrs`]).
pub fn from_lcrs(tree: &TreeNode<CssNode>) -> Stylesheet {
    let mut sheet = Stylesheet::default();
    let mut rule_cursor = tree.left.as_deref();
    while let Some(rule_node) = rule_cursor {
        let CssNode::Rule(selector) = &rule_node.value else {
            break;
        };
        let mut rule = crate::css::Rule {
            selector: selector.clone(),
            declarations: Vec::new(),
        };
        let mut decl_cursor = rule_node.left.as_deref();
        while let Some(decl_node) = decl_cursor {
            if let CssNode::Declaration(decl) = &decl_node.value {
                rule.declarations.push(decl.clone());
            }
            decl_cursor = decl_node.right.as_deref();
        }
        sheet.rules.push(rule);
        rule_cursor = rule_node.right.as_deref();
    }
    sheet
}

/// `ConvertValues`: `<n>00ms` → `.<n>s`, `1000ms` → `1s`.
pub fn convert_values_decl(decl: &mut Declaration) {
    if let Some(ms) = decl.value.strip_suffix("ms") {
        if let Ok(amount) = ms.trim().parse::<u64>() {
            if amount % 1000 == 0 {
                decl.value = format!("{}s", amount / 1000);
            } else if amount % 100 == 0 {
                decl.value = format!(".{}s", amount / 100);
            }
        }
    }
}

/// `MinifyFont`: `font-weight: normal|bold` → numeric weights.
pub fn minify_font_decl(decl: &mut Declaration) {
    if decl.property == "font-weight" {
        match decl.value.as_str() {
            "normal" => decl.value = "400".into(),
            "bold" => decl.value = "700".into(),
            _ => {}
        }
    }
}

/// `ReduceInit`: replace `initial` by a shorter concrete initial value when
/// one is known for the property.
pub fn reduce_init_decl(decl: &mut Declaration) {
    if decl.value == "initial" {
        let shorter = match decl.property.as_str() {
            "min-width" | "min-height" | "margin" | "padding" => Some("0"),
            "font-weight" => Some("400"),
            _ => None,
        };
        if let Some(replacement) = shorter {
            if replacement.len() < decl.value.len() {
                decl.value = replacement.into();
            }
        }
    }
}

/// One post-order traversal of the LCRS tree, applying `apply` to every
/// declaration node.
fn postorder_declarations(node: &mut TreeNode<CssNode>, apply: &impl Fn(&mut Declaration)) {
    if let Some(left) = node.left.as_deref_mut() {
        postorder_declarations(left, apply);
    }
    if let Some(right) = node.right.as_deref_mut() {
        postorder_declarations(right, apply);
    }
    if let CssNode::Declaration(decl) = &mut node.value {
        apply(decl);
    }
}

/// Minifies a style sheet with three *separate* traversals of the LCRS tree
/// (the unfused baseline of Fig. 8's `Main`).
pub fn minify_unfused(sheet: &Stylesheet) -> Stylesheet {
    let mut tree = to_lcrs(sheet);
    postorder_declarations(&mut tree, &convert_values_decl);
    postorder_declarations(&mut tree, &minify_font_decl);
    postorder_declarations(&mut tree, &reduce_init_decl);
    from_lcrs(&tree)
}

/// Minifies a style sheet with the *fused* single traversal (the
/// transformation §5 verifies).
pub fn minify_fused(sheet: &Stylesheet) -> Stylesheet {
    let mut tree = to_lcrs(sheet);
    postorder_declarations(&mut tree, &|decl: &mut Declaration| {
        convert_values_decl(decl);
        minify_font_decl(decl);
        reduce_init_decl(decl);
    });
    from_lcrs(&tree)
}

/// A flat reference minifier operating directly on the declaration list
/// (no trees at all) — the ground truth both traversal versions are compared
/// against.
pub fn minify_reference(sheet: &Stylesheet) -> Stylesheet {
    let mut out = sheet.clone();
    for rule in &mut out.rules {
        for decl in &mut rule.declarations {
            convert_values_decl(decl);
            minify_font_decl(decl);
            reduce_init_decl(decl);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::css::{generate_stylesheet, parse_css};

    #[test]
    fn lcrs_round_trip() {
        let sheet = parse_css(".a{color:red;margin:4px}.b{font-weight:bold}").unwrap();
        let tree = to_lcrs(&sheet);
        assert_eq!(from_lcrs(&tree), sheet);
        // Root + 2 rules + 3 declarations.
        assert_eq!(tree.len(), 6);
    }

    #[test]
    fn individual_passes() {
        let mut decl = Declaration {
            property: "transition-duration".into(),
            value: "100ms".into(),
        };
        convert_values_decl(&mut decl);
        assert_eq!(decl.value, ".1s");

        let mut decl = Declaration {
            property: "transition-duration".into(),
            value: "2000ms".into(),
        };
        convert_values_decl(&mut decl);
        assert_eq!(decl.value, "2s");

        let mut decl = Declaration {
            property: "font-weight".into(),
            value: "normal".into(),
        };
        minify_font_decl(&mut decl);
        assert_eq!(decl.value, "400");

        let mut decl = Declaration {
            property: "min-width".into(),
            value: "initial".into(),
        };
        reduce_init_decl(&mut decl);
        assert_eq!(decl.value, "0");

        // Unknown properties keep `initial`.
        let mut decl = Declaration {
            property: "color".into(),
            value: "initial".into(),
        };
        reduce_init_decl(&mut decl);
        assert_eq!(decl.value, "initial");
    }

    #[test]
    fn fused_and_unfused_minification_agree_with_the_reference() {
        for seed in 0..5 {
            let sheet = generate_stylesheet(40, seed);
            let reference = minify_reference(&sheet);
            assert_eq!(minify_unfused(&sheet), reference, "seed {seed}");
            assert_eq!(minify_fused(&sheet), reference, "seed {seed}");
        }
    }

    #[test]
    fn minification_reduces_size() {
        let sheet = generate_stylesheet(100, 3);
        let minified = minify_fused(&sheet);
        assert!(minified.serialized_len() < sheet.serialized_len());
        assert_eq!(minified.num_declarations(), sheet.num_declarations());
    }

    #[test]
    fn example_from_the_paper_text() {
        // "100ms will be represented as .1s", "font-weight: normal will be
        // rewritten to font-weight: 400", "min-width: initial will be
        // converted to min-width: 0".
        let sheet = parse_css(".x{transition-duration:100ms;font-weight:normal;min-width:initial}")
            .unwrap();
        let out = minify_fused(&sheet);
        let css = out.to_css();
        assert!(css.contains("transition-duration:.1s"));
        assert!(css.contains("font-weight:400"));
        assert!(css.contains("min-width:0"));
    }
}
