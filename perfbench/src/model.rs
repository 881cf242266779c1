//! The generator's model of a document: the tokens it generated, the XML
//! text the program receives, and the answers a correct store must give
//! for every node id the generator recorded.
//!
//! Node ids are assigned by the store in document order to every token
//! that opens a node (elements, attributes, text), starting at the id the
//! store reports for the load or insert. The model numbers its tokens the
//! same way, so a node is addressed by its offset from that first id.

use axs_xdm::{Token, TokenKind};
use axs_xml::{serialize, SerializeOptions};

const NONE: u32 = u32::MAX;

/// A generated fragment plus the structure needed to predict reads.
pub struct Doc {
    /// The generated tokens.
    pub tokens: Vec<Token>,
    /// The XML text handed to the program.
    pub xml: String,
    /// Node offset -> token index of its begin (or leaf) token.
    begin: Vec<u32>,
    /// Node offset -> token index of its end token (the begin for leaves).
    end: Vec<u32>,
    /// Node offset -> parent offset, `NONE` at top level.
    parent: Vec<u32>,
    /// Token index -> node offset, `NONE` for end tokens.
    node_of: Vec<u32>,
}

impl Doc {
    pub fn new(tokens: Vec<Token>) -> Doc {
        let xml =
            serialize(&tokens, &SerializeOptions::default()).expect("generated tokens serialize");
        let mut begin = Vec::new();
        let mut end = Vec::new();
        let mut parent = Vec::new();
        let mut node_of = Vec::with_capacity(tokens.len());
        let mut open: Vec<u32> = Vec::new();
        for (i, tok) in tokens.iter().enumerate() {
            let kind = tok.kind();
            if kind.consumes_id() {
                let off = begin.len() as u32;
                begin.push(i as u32);
                end.push(i as u32);
                parent.push(open.last().copied().unwrap_or(NONE));
                node_of.push(off);
                if kind.is_begin() {
                    open.push(off);
                }
            } else {
                node_of.push(NONE);
                if kind.is_end() {
                    let off = open.pop().expect("balanced generated tokens");
                    end[off as usize] = i as u32;
                }
            }
        }
        Doc {
            tokens,
            xml,
            begin,
            end,
            parent,
            node_of,
        }
    }

    /// Number of node ids the fragment consumes.
    pub fn id_count(&self) -> u64 {
        self.begin.len() as u64
    }

    pub fn kind(&self, off: u64) -> TokenKind {
        self.tokens[self.begin[off as usize] as usize].kind()
    }

    fn span(&self, off: u64) -> &[Token] {
        &self.tokens[self.begin[off as usize] as usize..=self.end[off as usize] as usize]
    }

    /// Offsets of every element except the first top-level one (the root
    /// of a generated document, whose string value is the whole store).
    pub fn elements_below_root(&self) -> Vec<u64> {
        (1..self.id_count())
            .filter(|&off| self.kind(off) == TokenKind::BeginElement)
            .collect()
    }

    /// Offsets of the elements in `off`'s subtree, itself first.
    pub fn elements_in(&self, off: u64) -> Vec<u64> {
        let end = self.end[off as usize];
        (off..self.id_count())
            .take_while(|&o| self.begin[o as usize] <= end)
            .filter(|&o| self.kind(o) == TokenKind::BeginElement)
            .collect()
    }

    /// `read_node`: the node's subtree, serialized.
    pub fn read_node(&self, off: u64) -> String {
        serialize(self.span(off), &SerializeOptions::default()).expect("model subtree serializes")
    }

    /// `string_value`: descendant text outside attributes.
    pub fn string_value(&self, off: u64) -> String {
        let span = self.span(off);
        if span[0].kind() != TokenKind::BeginElement {
            return span[0].string_value().unwrap_or_default().to_string();
        }
        let mut out = String::new();
        let mut in_attribute = 0u32;
        for tok in span {
            match tok.kind() {
                TokenKind::BeginAttribute => in_attribute += 1,
                TokenKind::EndAttribute => in_attribute -= 1,
                TokenKind::Text if in_attribute == 0 => {
                    out.push_str(tok.string_value().unwrap_or_default())
                }
                _ => {}
            }
        }
        out
    }

    /// `children`: non-attribute child offsets with their element names
    /// (empty for text children).
    pub fn children(&self, off: u64) -> Vec<(u64, String)> {
        let b = self.begin[off as usize] as usize;
        let e = self.end[off as usize] as usize;
        let mut out = Vec::new();
        let mut depth = 0i32;
        for i in b + 1..e {
            let tok = &self.tokens[i];
            let kind = tok.kind();
            if depth == 0 && kind.consumes_id() && kind != TokenKind::BeginAttribute {
                let name = tok.name().map(|q| q.to_lexical()).unwrap_or_default();
                out.push((u64::from(self.node_of[i]), name));
            }
            depth += kind.depth_delta();
        }
        out
    }

    /// `parent`: the parent offset, `None` at top level.
    pub fn parent(&self, off: u64) -> Option<u64> {
        let p = self.parent[off as usize];
        (p != NONE).then_some(u64::from(p))
    }
}

/// A Zipf(θ) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A uniform draw in `[0, 1)` from the workspace's minimal RNG.
pub fn unit(rng: &mut rand::rngs::StdRng) -> f64 {
    use rand::Rng;
    rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_predicts_navigation() {
        let doc = Doc::new(vec![
            Token::begin_element("a"),
            Token::begin_attribute("k", "v"),
            Token::EndAttribute,
            Token::begin_element("b"),
            Token::text("x"),
            Token::EndElement,
            Token::text("y"),
            Token::EndElement,
        ]);
        // a=0, @k=1, b=2, "x"=3, "y"=4
        assert_eq!(doc.id_count(), 5);
        assert_eq!(doc.elements_below_root(), vec![2]);
        assert_eq!(doc.elements_in(0), vec![0, 2]);
        assert_eq!(doc.elements_in(2), vec![2]);
        assert_eq!(doc.read_node(2), "<b>x</b>");
        assert_eq!(doc.string_value(0), "xy");
        assert_eq!(
            doc.children(0),
            vec![(2, "b".to_string()), (4, String::new())]
        );
        assert_eq!(doc.parent(3), Some(2));
        assert_eq!(doc.parent(0), None);
    }

    #[test]
    fn zipf_ranks_are_skewed_and_bounded() {
        let z = Zipf::new(1000, 0.99);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 999);
        assert!(z.rank(0.5) < 100);
    }
}
