package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// golden.txt holds, for every input variant of every workload, the
// SHA-256 of the render the program (internal/experiments) produces, and
// the render's first line for readers. It is written by -record.
//
//go:embed golden.txt
var goldenText string

type goldenTable map[string]map[int]string // workload → variant → sha256

func renderDigest(render string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(render)))
}

func loadGolden() (goldenTable, error) {
	g := goldenTable{}
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for ln := 1; sc.Scan(); ln++ {
		f := strings.SplitN(sc.Text(), "\t", 4)
		if len(f) < 3 || strings.HasPrefix(f[0], "#") {
			continue
		}
		v, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("golden.txt line %d: %w", ln, err)
		}
		if g[f[0]] == nil {
			g[f[0]] = map[int]string{}
		}
		g[f[0]][v] = f[2]
	}
	for _, w := range workloads {
		if len(g[w.name]) != w.variants {
			return nil, fmt.Errorf("golden.txt: %s has %d of %d variants recorded", w.name, len(g[w.name]), w.variants)
		}
	}
	return g, nil
}

func (g goldenTable) matches(workload string, v int, render string) bool {
	return g[workload][v] == renderDigest(render)
}

// writeGolden runs the program at every variant of every workload and
// writes the recorded renders' digests to path.
func writeGolden(path string) error {
	var b strings.Builder
	b.WriteString("# workload\tvariant\tsha256(render)\tfirst line of render\n")
	for _, w := range workloads {
		for v := 0; v < w.variants; v++ {
			r := w.reference(v, false)
			first, _, _ := strings.Cut(r, "\n")
			fmt.Fprintf(&b, "%s\t%d\t%s\t%s\n", w.name, v, renderDigest(r), first)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
