// Package svgplot renders line charts, grouped bar charts and scatter
// plots as standalone SVG documents using only the standard library —
// the harness uses it to regenerate the paper's figures as actual
// figures next to the textual tables.
package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// palette holds distinguishable series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

// Series is one named line or point set.
type Series struct {
	Name string
	X, Y []float64
	// Points draws markers without a connecting line (scatter).
	Points bool
}

// Plot is a 2-D chart with numeric axes.
type Plot struct {
	Title          string
	XLabel, YLabel string
	Series         []Series
	LogX, LogY     bool
	W, H           int
}

const (
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 50
)

// SVG renders the plot as a complete SVG document.
func (p *Plot) SVG() string {
	w, h := p.W, p.H
	if w == 0 {
		w = 720
	}
	if h == 0 {
		h = 440
	}
	var xs, ys []float64
	for _, s := range p.Series {
		for i := range s.X {
			x, y := p.tx(s.X[i]), p.ty(s.Y[i])
			if valid(x) && valid(y) {
				xs = append(xs, x)
				ys = append(ys, y)
			}
		}
	}
	xmin, xmax := bounds(xs)
	ymin, ymax := bounds(ys)

	var b strings.Builder
	openSVG(&b, w, h)
	title(&b, w, p.Title)

	plotW := float64(w - marginL - marginR)
	plotH := float64(h - marginT - marginB)
	sx := func(x float64) float64 { return float64(marginL) + float64((x-xmin)/(xmax-xmin)*plotW) }
	sy := func(y float64) float64 { return float64(marginT) + float64((ymax-y)/(ymax-ymin)*plotH) }

	// Frame, ticks and grid.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)
	for _, t := range ticks(xmin, xmax, 8) {
		x := sx(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			x, marginT, x, float64(marginT)+plotH)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(marginT)+plotH+16, p.tickLabel(t, p.LogX))
	}
	for _, t := range ticks(ymin, ymax, 6) {
		y := sy(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, float64(marginL)+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, p.tickLabel(t, p.LogY))
	}
	axisLabels(&b, w, h, p.XLabel, p.YLabel)

	// Series.
	for si, s := range p.Series {
		color := palette[si%len(palette)]
		if s.Points {
			for i := range s.X {
				x, y := p.tx(s.X[i]), p.ty(s.Y[i])
				if !valid(x) || !valid(y) {
					continue
				}
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s"/>`+"\n", sx(x), sy(y), color)
			}
		} else {
			var pts []string
			for i := range s.X {
				x, y := p.tx(s.X[i]), p.ty(s.Y[i])
				if !valid(x) || !valid(y) {
					continue
				}
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", sx(x), sy(y)))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		// Legend entry.
		lx := marginL + 12
		ly := marginT + 16 + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="4" fill="%s"/>`+"\n", lx, ly-4, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", lx+18, ly, escape(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func (p *Plot) tx(x float64) float64 {
	if p.LogX {
		return math.Log10(x)
	}
	return x
}

func (p *Plot) ty(y float64) float64 {
	if p.LogY {
		return math.Log10(y)
	}
	return y
}

func (p *Plot) tickLabel(t float64, log bool) string {
	if log {
		return fmt.Sprintf("1e%d", int(math.Round(t)))
	}
	return trimNum(t)
}

// BarChart is a grouped bar chart over categorical labels.
type BarChart struct {
	Title  string
	YLabel string
	Labels []string
	// Groups maps series name to one value per label; iteration order
	// follows GroupOrder.
	Groups     map[string][]float64
	GroupOrder []string
	W, H       int
}

// SVG renders the bar chart as a complete SVG document.
func (c *BarChart) SVG() string {
	w, h := c.W, c.H
	if w == 0 {
		w = 900
	}
	if h == 0 {
		h = 440
	}
	var all []float64
	for _, name := range c.GroupOrder {
		for _, v := range c.Groups[name] {
			if valid(v) {
				all = append(all, v)
			}
		}
	}
	ymin, ymax := bounds(all)
	if ymin > 0 {
		ymin = 0
	}
	if ymax < 0 {
		ymax = 0
	}

	var b strings.Builder
	openSVG(&b, w, h)
	title(&b, w, c.Title)
	plotW := float64(w - marginL - marginR)
	plotH := float64(h - marginT - marginB)
	sy := func(y float64) float64 { return float64(marginT) + float64((ymax-y)/(ymax-ymin)*plotH) }

	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)
	for _, t := range ticks(ymin, ymax, 6) {
		y := sy(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, float64(marginL)+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, trimNum(t))
	}
	// Zero axis.
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333"/>`+"\n",
		marginL, sy(0), float64(marginL)+plotW, sy(0))

	ng := len(c.GroupOrder)
	nl := len(c.Labels)
	slot := plotW / float64(nl)
	barW := slot * 0.8 / float64(max(ng, 1))
	for li, label := range c.Labels {
		x0 := float64(marginL) + float64(slot*float64(li)) + float64(slot*0.1)
		for gi, gname := range c.GroupOrder {
			vs := c.Groups[gname]
			if li >= len(vs) || !valid(vs[li]) {
				continue
			}
			v := vs[li]
			yTop := sy(math.Max(v, 0))
			height := math.Abs(sy(0) - sy(v))
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x0+float64(barW*float64(gi)), yTop, barW*0.92, height, palette[gi%len(palette)])
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="10" text-anchor="end" transform="rotate(-45 %.1f %.1f)">%s</text>`+"\n",
			x0+float64(slot*0.4), float64(marginT)+plotH+14, x0+float64(slot*0.4), float64(marginT)+plotH+14, escape(label))
	}
	for gi, gname := range c.GroupOrder {
		lx := marginL + 12 + 130*gi
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n",
			lx, marginT+6, palette[gi%len(palette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", lx+18, marginT+16, escape(gname))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="16" y="%d" font-size="12" transform="rotate(-90 16 %d)">%s</text>`+"\n",
			h/2, h/2, escape(c.YLabel))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// --- shared helpers ---

func openSVG(b *strings.Builder, w, h int) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n", w, h, w, h)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
}

func title(b *strings.Builder, w int, t string) {
	if t != "" {
		fmt.Fprintf(b, `<text x="%d" y="22" font-size="15" text-anchor="middle" font-weight="bold">%s</text>`+"\n",
			w/2, escape(t))
	}
}

func axisLabels(b *strings.Builder, w, h int, xl, yl string) {
	if xl != "" {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
			w/2, h-12, escape(xl))
	}
	if yl != "" {
		fmt.Fprintf(b, `<text x="16" y="%d" font-size="12" transform="rotate(-90 16 %d)">%s</text>`+"\n",
			h/2, h/2, escape(yl))
	}
}

func valid(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func bounds(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 1
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	// A little headroom.
	pad := float64((hi - lo) * 0.05)
	return lo - pad, hi + pad
}

// ticks picks ~n round tick values spanning [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 || !(hi > lo) {
		return nil
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step/1e9; t += step {
		out = append(out, t)
	}
	return out
}

func trimNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
