// Package imageio reads and writes binary images in every format the
// tools understand — PBM (P1/P4), PNG, and the repository's RLE text
// and binary formats — sniffing the input format from its magic
// bytes. It is the I/O layer shared by cmd/sysdiff, cmd/pcbinspect
// and the HTTP service.
package imageio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"

	"sysrle/internal/bitmap"
	"sysrle/internal/rle"
)

// Formats lists the accepted output format names.
func Formats() []string {
	return []string{"pbm", "pbm-plain", "png", "rlet", "rleb"}
}

// IsFormat reports whether name is one of Formats.
func IsFormat(name string) bool { return slices.Contains(Formats(), name) }

// Read decodes an image, sniffing the format: PBM "P1"/"P4", PNG
// signature, RLE text "RLET", RLE binary "RLEB".
func Read(r io.Reader) (*rle.Image, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(8)
	if err != nil && len(magic) < 2 {
		return nil, fmt.Errorf("imageio: short input: %v", err)
	}
	switch {
	case bytes.HasPrefix(magic, []byte("P1")) || bytes.HasPrefix(magic, []byte("P4")):
		bm, err := bitmap.ReadPBM(br)
		if err != nil {
			return nil, err
		}
		return bm.ToRLE(), nil
	case bytes.HasPrefix(magic, []byte("P2")) || bytes.HasPrefix(magic, []byte("P5")):
		// Grayscale scans binarize at the midpoint on the way in.
		bm, err := bitmap.ReadPGM(br, 0.5)
		if err != nil {
			return nil, err
		}
		return bm.ToRLE(), nil
	case bytes.HasPrefix(magic, []byte("\x89PNG")):
		bm, err := bitmap.ReadPNG(br)
		if err != nil {
			return nil, err
		}
		return bm.ToRLE(), nil
	case bytes.HasPrefix(magic, []byte("RLET")):
		return rle.ReadText(br)
	case bytes.HasPrefix(magic, []byte("RLEB")):
		return rle.ReadBinary(br)
	default:
		return nil, fmt.Errorf("imageio: unrecognized format (magic %q)", trimMagic(magic))
	}
}

func trimMagic(m []byte) []byte {
	if len(m) > 4 {
		return m[:4]
	}
	return m
}

// ReadFile decodes an image file.
func ReadFile(path string) (*rle.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return img, nil
}

// Write encodes an image in the named format.
func Write(w io.Writer, format string, img *rle.Image) error {
	switch format {
	case "pbm":
		return bitmap.WritePBM(w, bitmap.FromRLE(img))
	case "pbm-plain":
		return bitmap.WritePBMPlain(w, bitmap.FromRLE(img))
	case "png":
		return bitmap.WritePNG(w, bitmap.FromRLE(img))
	case "rlet":
		return rle.WriteText(w, img)
	case "rleb":
		return rle.WriteBinary(w, img)
	default:
		return fmt.Errorf("imageio: unknown format %q (have %v)", format, Formats())
	}
}

// ContentType returns the MIME type for a format name.
func ContentType(format string) string {
	switch format {
	case "png":
		return "image/png"
	case "pbm", "pbm-plain":
		return "image/x-portable-bitmap"
	default:
		return "application/octet-stream"
	}
}
