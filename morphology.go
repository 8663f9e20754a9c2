package sysrle

import (
	"fmt"

	"sysrle/internal/runmorph"
)

// Compressed-domain binary morphology — the operation class the
// paper's introduction motivates, done without decompressing — on the
// run-native interval engine (internal/runmorph). Two API generations
// coexist here:
//
//   - The centred-box functions (Dilate, Erode, Open, Close, Gradient
//     with an SE of radii), the original API.
//   - The Morph* family exposes the full engine via functional
//     options: arbitrary rectangular SEs with arbitrary origins
//     (WithRectSE, WithSEOrigin), explicit decomposed execution
//     (WithDecomposedSE), plus top-hat, black-hat and hit-or-miss.

// SE is a rectangular structuring element with horizontal radius Rx
// and vertical radius Ry; Box(1) is the 3×3 box. It stands for the
// (2Rx+1)×(2Ry+1) rectangle centred on the origin.
type SE struct {
	Rx int
	Ry int
}

// Box returns the square structuring element of the given radius.
func Box(r int) SE { return SE{Rx: r, Ry: r} }

// boxOp runs a runmorph operation with the SE's rectangle, rejecting
// negative radii.
func boxOp(op func(*Image, RectSE) (*Image, error), img *Image, se SE) (*Image, error) {
	if se.Rx < 0 || se.Ry < 0 {
		return nil, fmt.Errorf("sysrle: negative SE radii %+v", se)
	}
	return op(img, runmorph.Rect(2*se.Rx+1, 2*se.Ry+1))
}

// Dilate grows foreground by the SE.
func Dilate(img *Image, se SE) (*Image, error) { return boxOp(runmorph.Dilate, img, se) }

// Erode shrinks foreground by the SE. Pixels whose SE window extends
// past the border erode away (background padding).
func Erode(img *Image, se SE) (*Image, error) { return boxOp(runmorph.Erode, img, se) }

// Open removes foreground detail smaller than the SE.
func Open(img *Image, se SE) (*Image, error) { return boxOp(runmorph.Open, img, se) }

// Close fills background detail smaller than the SE; it stays
// extensive (img ⊆ Close(img)) right up to the borders.
func Close(img *Image, se SE) (*Image, error) { return boxOp(runmorph.Close, img, se) }

// Gradient extracts object boundaries (dilation minus erosion).
func Gradient(img *Image, se SE) (*Image, error) { return boxOp(runmorph.Gradient, img, se) }

// RectSE is the general structuring element of the run-native engine:
// a W×H rectangle with an arbitrary origin inside it. Construct with
// sysrle.Rect / HLineSE / VLineSE, move the origin via WithSEOrigin.
type RectSE = runmorph.SE

// Pattern is a hit-or-miss template; see MorphHitOrMiss and
// ParsePattern.
type Pattern = runmorph.Pattern

// Rect returns a w×h structuring element with a centred origin.
func Rect(w, h int) RectSE { return runmorph.Rect(w, h) }

// HLineSE returns a 1-pixel-tall horizontal line SE of width w.
func HLineSE(w int) RectSE { return runmorph.HLine(w) }

// VLineSE returns a 1-pixel-wide vertical line SE of height h.
func VLineSE(h int) RectSE { return runmorph.VLine(h) }

// ParsePattern builds a hit-or-miss Pattern from an ASCII stencil
// ('1' foreground, '0' background, '.' don't-care) with origin
// (ox, oy).
func ParsePattern(rows []string, ox, oy int) (Pattern, error) {
	return runmorph.ParsePattern(rows, ox, oy)
}

// MorphOption configures the Morph* operations. The zero configuration
// uses the 3×3 centred box executed directly (not decomposed).
type MorphOption func(*morphConfig)

type morphConfig struct {
	se         RectSE
	originSet  bool
	ox, oy     int
	decomposed bool
}

func defaultMorphConfig() morphConfig {
	return morphConfig{se: runmorph.Box(1)}
}

// WithRectSE selects the structuring element (default: the 3×3 box).
func WithRectSE(se RectSE) MorphOption { return func(c *morphConfig) { c.se = se } }

// WithSEOrigin moves the SE origin to (ox, oy) — it must stay inside
// the rectangle. Applied after WithRectSE regardless of option order.
func WithSEOrigin(ox, oy int) MorphOption {
	return func(c *morphConfig) { c.originSet, c.ox, c.oy = true, ox, oy }
}

// WithDecomposedSE executes the operation as a chain over the SE's
// horizontal/vertical factors instead of one 2-D pass. The result is
// identical (the oracle pins the equivalence); the chained form is the
// fast path for tall SEs, whose vertical sweep would otherwise touch
// H rows per output row.
func WithDecomposedSE() MorphOption { return func(c *morphConfig) { c.decomposed = true } }

func resolveMorph(opts []MorphOption) (morphConfig, error) {
	cfg := defaultMorphConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.originSet {
		cfg.se = cfg.se.At(cfg.ox, cfg.oy)
	}
	if err := cfg.se.Validate(); err != nil {
		return cfg, fmt.Errorf("sysrle: %w", err)
	}
	return cfg, nil
}

// MorphDilate dilates img by the configured structuring element.
func MorphDilate(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	if cfg.decomposed {
		return runmorph.DilateSeq(img, cfg.se.Decompose())
	}
	return runmorph.Dilate(img, cfg.se)
}

// MorphErode erodes img by the configured structuring element.
func MorphErode(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	if cfg.decomposed {
		return runmorph.ErodeSeq(img, cfg.se.Decompose())
	}
	return runmorph.Erode(img, cfg.se)
}

// MorphOpen removes foreground detail smaller than the SE
// (anti-extensive, idempotent).
func MorphOpen(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	return runmorph.Open(img, cfg.se)
}

// MorphClose fills background detail smaller than the SE (extensive,
// idempotent; computed on a padded canvas so borders behave as on an
// infinite plane).
func MorphClose(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	return runmorph.Close(img, cfg.se)
}

// MorphGradient extracts the boundary band (dilation minus erosion).
func MorphGradient(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	return runmorph.Gradient(img, cfg.se)
}

// MorphTopHat returns foreground detail the opening removes — specks
// and strokes thinner than the SE.
func MorphTopHat(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	return runmorph.TopHat(img, cfg.se)
}

// MorphBlackHat returns background detail the closing fills —
// pinholes and gaps thinner than the SE.
func MorphBlackHat(img *Image, opts ...MorphOption) (*Image, error) {
	cfg, err := resolveMorph(opts)
	if err != nil {
		return nil, err
	}
	return runmorph.BlackHat(img, cfg.se)
}

// MorphHitOrMiss matches an exact foreground/background template at
// every pixel (pixels outside the frame read as background).
func MorphHitOrMiss(img *Image, pat Pattern) (*Image, error) {
	return runmorph.HitOrMiss(img, pat)
}
