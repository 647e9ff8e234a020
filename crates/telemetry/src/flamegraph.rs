//! Dependency-free SVG flamegraph writer.
//!
//! Takes the folded stacks of a [`crate::profile::ProfileReport`] and
//! renders the classic flame-graph layout: x-extent proportional to wall
//! time, one row per stack depth, children stacked above their parent.
//! The output is a single static SVG — no JavaScript, no external fonts,
//! no dependencies — with a `<title>` tooltip per frame so any browser
//! shows exact times on hover.

use crate::profile::FoldedStack;

/// Canvas width in pixels.
const WIDTH: f64 = 1200.0;
/// Height of one frame row.
const ROW: f64 = 18.0;
/// Vertical padding above and below the frame rows.
const PAD: f64 = 28.0;
/// Approximate glyph width at font-size 11, for label truncation.
const GLYPH: f64 = 6.7;
/// Frames narrower than this get no label.
const MIN_LABEL_PX: f64 = 3.0 * GLYPH;

/// One node of the merged stack tree.
struct Node {
    name: String,
    value: u64,
    children: Vec<Node>,
}

impl Node {
    fn child_mut(&mut self, name: &str) -> &mut Node {
        // Linear scan: phase fan-out is tiny (a handful of children).
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            &mut self.children[i]
        } else {
            self.children.push(Node {
                name: name.to_string(),
                value: 0,
                children: Vec::new(),
            });
            self.children.last_mut().unwrap()
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(Node::depth).max().unwrap_or(0)
    }
}

/// Deterministic warm color per frame name (FNV-1a hash into a small
/// orange/red palette, like the canonical flamegraph tooling).
fn color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    let r = 205 + (h % 50) as u8;
    let g = 50 + ((h >> 8) % 130) as u8;
    let b = ((h >> 16) % 35) as u8;
    format!("rgb({r},{g},{b})")
}

/// Escape text for SVG/XML content and attributes.
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render `stacks` as a self-contained SVG flamegraph.
pub fn render(stacks: &[FoldedStack], title: &str) -> String {
    let mut root = Node {
        name: String::new(),
        value: 0,
        children: Vec::new(),
    };
    for s in stacks {
        root.value += s.nanos;
        let mut node = &mut root;
        for frame in &s.frames {
            node = node.child_mut(frame);
            node.value += s.nanos;
        }
    }
    let total = root.value.max(1);
    let depth = root.depth().saturating_sub(1).max(1);
    let height = PAD * 2.0 + ROW * depth as f64;

    let mut svg = String::new();
    svg.push_str(&format!(
        concat!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" ",
            "viewBox=\"0 0 {w} {h}\" font-family=\"monospace\" font-size=\"11\">\n",
            "<rect width=\"{w}\" height=\"{h}\" fill=\"#f8f8f8\"/>\n",
            "<text x=\"{mid}\" y=\"17\" text-anchor=\"middle\" font-size=\"13\">{title}</text>\n",
        ),
        w = WIDTH,
        h = height,
        mid = WIDTH / 2.0,
        title = esc(title),
    ));

    // Flames grow upward: depth 0 sits at the bottom.
    let mut frames: Vec<(f64, usize, &Node)> = Vec::new(); // (x, depth, node)
    let mut queue: Vec<(f64, usize, &Node)> = vec![(0.0, 0, &root)];
    while let Some((x, d, node)) = queue.pop() {
        let mut cx = x;
        for child in &node.children {
            frames.push((cx, d, child));
            queue.push((cx, d + 1, child));
            cx += child.value as f64 / total as f64 * WIDTH;
        }
    }

    for (x, d, node) in frames {
        let w = node.value as f64 / total as f64 * WIDTH;
        let y = height - PAD - ROW * (d + 1) as f64;
        let pct = node.value as f64 / total as f64 * 100.0;
        svg.push_str(&format!(
            concat!(
                "<g><title>{name}: {ms:.3} ms ({pct:.2}%)</title>",
                "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{rh}\" ",
                "fill=\"{fill}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
            ),
            name = esc(&node.name),
            ms = node.value as f64 / 1e6,
            pct = pct,
            x = x,
            y = y,
            w = w.max(0.1),
            rh = ROW,
            fill = color(&node.name),
        ));
        if w >= MIN_LABEL_PX {
            let max_chars = (w / GLYPH).floor() as usize;
            let label: String = if node.name.chars().count() > max_chars {
                let cut: String = node
                    .name
                    .chars()
                    .take(max_chars.saturating_sub(2))
                    .collect();
                format!("{cut}..")
            } else {
                node.name.clone()
            };
            svg.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" fill=\"#111\">{}</text>",
                x + 3.0,
                y + ROW - 5.0,
                esc(&label)
            ));
        }
        svg.push_str("</g>\n");
    }
    svg.push_str(&format!(
        "<text x=\"4\" y=\"{:.2}\" fill=\"#555\">{:.3} ms</text>\n",
        height - 8.0,
        root.value as f64 / 1e6
    ));
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stacks() -> Vec<FoldedStack> {
        vec![
            FoldedStack {
                frames: vec!["step".into(), "dynamics".into(), "filter".into()],
                nanos: 60,
            },
            FoldedStack {
                frames: vec!["step".into(), "physics".into()],
                nanos: 30,
            },
            FoldedStack {
                frames: vec!["(idle)".into()],
                nanos: 10,
            },
        ]
    }

    #[test]
    fn svg_contains_every_frame_and_is_well_formed_enough() {
        let svg = render(&stacks(), "smoke profile");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        for name in ["step", "dynamics", "physics", "(idle)"] {
            assert!(svg.contains(name), "missing frame {name}");
        }
        // Balanced tags, since nothing should be truncated mid-element.
        assert_eq!(svg.matches("<rect").count(), svg.matches("<g>").count() + 1);
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn widths_are_proportional_to_wall_time() {
        let svg = render(&stacks(), "t");
        // step = 90 of 100 ns → width 90% of 1200 = 1080.
        assert!(svg.contains("width=\"1080.00\""), "svg:\n{svg}");
    }

    #[test]
    fn xml_special_characters_are_escaped() {
        let svg = render(
            &[FoldedStack {
                frames: vec!["a<b&\"c\">".into()],
                nanos: 1,
            }],
            "<title&>",
        );
        assert!(!svg.contains("a<b"));
        assert!(svg.contains("a&lt;b&amp;&quot;c&quot;&gt;"));
        assert!(svg.contains("&lt;title&amp;&gt;"));
    }

    #[test]
    fn empty_input_renders_an_empty_graph() {
        let svg = render(&[], "empty");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("0.000 ms"));
    }
}
