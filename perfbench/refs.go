package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// refSeed is the seed the reference outputs were produced at:
// results_all.txt is `trimsim -all` at its default seed, and the goldens
// in golden/ were generated from the same commit with -write-golden.
const refSeed = 1

// references holds the byte-exact expected outputs at refSeed, keyed by
// runner id (results_all.txt sections) or golden name (golden/*.txt).
type references map[string][]byte

// findRoot locates the repository root (the directory holding
// results_all.txt and this benchmark) from the working directory, so
// the benchmark runs from the root and its tests from their package
// directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if fileExists(filepath.Join(dir, "results_all.txt")) && fileExists(filepath.Join(dir, "perfbench", "golden")) {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("repository root with results_all.txt and perfbench/golden not found above the working directory")
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// loadReferences reads every results_all.txt section and every golden.
func loadReferences(root string) (references, error) {
	all, err := os.ReadFile(filepath.Join(root, "results_all.txt"))
	if err != nil {
		return nil, err
	}
	refs := parseSections(all)
	if len(refs) == 0 {
		return nil, fmt.Errorf("results_all.txt: no sections")
	}
	goldens, err := filepath.Glob(filepath.Join(root, "perfbench", "golden", "*.txt"))
	if err != nil {
		return nil, err
	}
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			return nil, err
		}
		refs["golden:"+strings.TrimSuffix(filepath.Base(g), ".txt")] = b
	}
	return refs, nil
}

// parseSections splits `trimsim -all` output: each runner's output
// follows a "### <id>" line and a blank line, up to the next "### ".
func parseSections(all []byte) references {
	refs := references{}
	const mark = "### "
	for len(all) > 0 {
		if !bytes.HasPrefix(all, []byte(mark)) {
			i := bytes.Index(all, []byte("\n"+mark))
			if i < 0 {
				break
			}
			all = all[i+1:]
			continue
		}
		nl := bytes.IndexByte(all, '\n')
		if nl < 0 {
			break
		}
		id := string(all[len(mark):nl])
		body := bytes.TrimPrefix(all[nl+1:], []byte("\n"))
		end := bytes.Index(body, []byte("\n"+mark))
		if end < 0 {
			refs[id] = body
			break
		}
		refs[id] = body[:end+1]
		all = body[end+1:]
	}
	return refs
}

// check compares out with the reference named key when seed is the
// reference seed; it reports whether the output is acceptable.
func (r references) check(key string, seed int64, out []byte) error {
	if seed != refSeed {
		return nil
	}
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("no reference output %q", key)
	}
	if !bytes.Equal(want, out) {
		return fmt.Errorf("%s at seed %d differs from its reference output", key, seed)
	}
	return nil
}
