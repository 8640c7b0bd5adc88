package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
)

// regenLine matches the wall-clock trailer ctcpbench prints after each
// artifact: "[table1 regenerated in 651ms]". It is the only line of
// results_full.txt that varies between runs of an unchanged tree.
var regenLine = regexp.MustCompile(`^\[(\S+) regenerated in [^\]]*\]$`)

// referenceBlocks splits a ctcpbench transcript (results_full.txt) into the
// rendered text of each artifact, keyed by artifact name. ctcpbench prints a
// header, then for each artifact its Render() output, a newline, the
// "[<name> regenerated in <d>]" trailer and a blank line; the block of an
// artifact is everything between the previous trailer (or the header) and
// its own trailer, with the separating blank lines trimmed. Comparing a fresh
// Render() with strings.TrimRight(render, "\n") against a block is therefore
// a byte-for-byte check of the artifact.
func referenceBlocks(transcript string) (map[string]string, error) {
	lines := strings.Split(transcript, "\n")
	blocks := make(map[string]string)
	start := 0
	for i, ln := range lines {
		m := regenLine.FindStringSubmatch(ln)
		if m == nil {
			continue
		}
		name := m[1]
		if _, dup := blocks[name]; dup {
			return nil, fmt.Errorf("artifact %q appears twice", name)
		}
		body := lines[start:i]
		if start == 0 {
			// The first block follows the "ctcpbench: budget ..." header
			// and its blank line.
			if len(body) == 0 || !strings.HasPrefix(body[0], "ctcpbench: budget ") {
				return nil, fmt.Errorf("transcript does not start with the ctcpbench header")
			}
			body = body[1:]
		}
		text := strings.Trim(strings.Join(body, "\n"), "\n")
		if text == "" {
			return nil, fmt.Errorf("artifact %q has an empty block", name)
		}
		blocks[name] = text
		start = i + 1
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("no \"[... regenerated in ...]\" trailers found")
	}
	return blocks, nil
}

// loadReferenceBlocks reads and splits the transcript at path.
func loadReferenceBlocks(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference transcript: %w", err)
	}
	blocks, err := referenceBlocks(string(data))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return blocks, nil
}

// matchesBlock reports whether a fresh Render() output equals its reference
// block byte for byte.
func matchesBlock(render, block string) bool {
	return strings.Trim(render, "\n") == block
}
