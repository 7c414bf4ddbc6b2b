package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"

	"valueexpert/internal/profile"
)

// pinnedDigests holds the SHA-256 of each application's normalized
// report under the CLI-default engine, one "<hex>  <app> s<scale>" line
// each. Regenerate it only on purpose: go test -run TestPinnedDigests
// -update (from bench/).
//
//go:embed testdata/reports.sha256
var pinnedDigests string

// digestKey names one application at one problem size.
func digestKey(app string, scale int) string { return fmt.Sprintf("%s s%d", app, scale) }

// parseDigests reads the sha256sum-style digest list.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		sum, key, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("reports.sha256: malformed line %q", line)
		}
		out[key] = sum
	}
	return out, sc.Err()
}

// reportDigest hashes a served or written report with its wall-clock
// field zeroed (Stats.AnalysisTime, the only field that differs between
// identical runs), parsing it back first so every path — in-process,
// replayed, served over HTTP — is normalized the same way.
func reportDigest(raw []byte) (string, error) {
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	rep.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// verify checks a report against the application's expected digest.
func verify(a *app, raw []byte) error {
	got, err := reportDigest(raw)
	if err != nil {
		return fmt.Errorf("%s: report: %w", a.name, err)
	}
	if got != a.digest {
		return fmt.Errorf("%s: report digest %.12s…, want %.12s… (%s)", a.name, got, a.digest, digestKey(a.name, a.scale))
	}
	return nil
}
