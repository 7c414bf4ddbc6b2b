package expgrid

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"valueexpert/internal/capsule"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the capsule corpus and its recorded reports")

// corpusDir is the checked-in capsule corpus.
const corpusDir = "../../testdata/corpus"

// TestCorpusCapsulesByteIdentity is the corpus-rot gate: every
// checked-in capsule must still reprofile byte-identical to its recorded
// report, so an engine change that silently altered what a capsule
// replays fails go test.
func TestCorpusCapsulesByteIdentity(t *testing.T) {
	if *updateCorpus {
		paths, err := BuildCorpus(corpusDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %d corpus capsules", len(paths))
	}
	files, err := CorpusFiles(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("corpus has %d capsules, want the checked-in >= 2 (regenerate with -update-corpus)", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			if err := VerifyCapsule(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorpusReplaySettingIdentity: replaying a corpus capsule at a
// pipelined setting yields the same report bytes as the synchronous
// replay — the engine's any-setting byte-identity holds for replayed
// capsules too.
func TestCorpusReplaySettingIdentity(t *testing.T) {
	files, err := CorpusFiles(corpusDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	report := func(workers, depth int) []byte {
		cfg := CorpusConfig()
		cfg.AnalysisWorkers = workers
		cfg.PipelineDepth = depth
		rep, _, err := capsule.Reprofile(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if sync, piped := report(0, 0), report(4, 3); !bytes.Equal(sync, piped) {
		t.Fatal("corpus replay differs between workers=0 and workers=4/depth=3")
	}
}

// TestMeasureCorpusCell: replaying the corpus is a fixed amount of work —
// every capsule carries a nonzero access-record volume that is the same on
// every pass, and every pass replays to a report.
func TestMeasureCorpusCell(t *testing.T) {
	files, err := CorpusFiles(corpusDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	measure := func() uint64 {
		var records uint64
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			launches, err := capsule.Launches(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			for _, l := range launches {
				records += uint64(l.Records)
			}
			if rep, _, err := capsule.Reprofile(data, CorpusConfig()); err != nil || rep == nil {
				t.Fatalf("%s: replay: %v", f, err)
			}
		}
		return records
	}
	r1 := measure()
	if r1 == 0 {
		t.Fatal("corpus reports zero access records")
	}
	if r2 := measure(); r1 != r2 {
		t.Fatalf("corpus record volume varies between passes: %d vs %d", r1, r2)
	}
}

// TestCellsOrderAndKeys: the checked-in corpus is exactly corpusEntries —
// CorpusFiles lists one capsule per entry, in sorted order, each named
// after its workload, launch and kernel, and each beside its recorded
// report.
func TestCellsOrderAndKeys(t *testing.T) {
	files, err := CorpusFiles(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(files) {
		t.Fatalf("CorpusFiles not sorted: %v", files)
	}
	var want []string
	for _, e := range corpusEntries {
		prefix := fmt.Sprintf("%s-l%d-", slug(e.Workload), e.Launch)
		var match string
		for _, f := range files {
			if strings.HasPrefix(filepath.Base(f), prefix) {
				match = f
			}
		}
		if match == "" {
			t.Fatalf("corpus entry %+v has no capsule %s*.capsule", e, prefix)
		}
		data, err := os.ReadFile(match)
		if err != nil {
			t.Fatal(err)
		}
		launches, err := capsule.Launches(bytes.NewReader(data))
		if err != nil || len(launches) != 1 {
			t.Fatalf("%s: %d launches, err %v; want one", match, len(launches), err)
		}
		if name := prefix + slug(launches[0].Kernel) + ".capsule"; filepath.Base(match) != name {
			t.Errorf("%s: want name %s", match, name)
		}
		if _, err := os.Stat(reportPath(match)); err != nil {
			t.Errorf("%s: %v", match, err)
		}
		want = append(want, match)
	}
	sort.Strings(want)
	if fmt.Sprint(files) != fmt.Sprint(want) {
		t.Fatalf("corpus files %v, want exactly %v", files, want)
	}
}

// TestGoldenOutputs: rebuilding the corpus from its definition reproduces
// every checked-in capsule and recorded report byte for byte, so the
// corpus is what BuildCorpus says it is and -update-corpus regenerates it
// without drift.
func TestGoldenOutputs(t *testing.T) {
	built, err := BuildCorpus(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range built {
		for _, p := range []string{path, reportPath(path)} {
			got, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(corpusDir, filepath.Base(p)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("rebuilt %s differs from the checked-in copy", filepath.Base(p))
			}
		}
	}
}
