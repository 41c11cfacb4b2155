package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The flag audit: every mutually-exclusive or out-of-range combination
// must be rejected by parseOptions (main maps that to exit 2), and every
// legitimate combination must pass. Each rejected case names the flag at
// fault so the error message stays actionable.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse cleanly
	}{
		// Legitimate combinations of every dispatch path.
		{"defaults", nil, ""},
		{"single run with faults", []string{"-linkrate", "0.05", "-noderate", "0.01", "-transient", "3", "-repair", "40"}, ""},
		{"module kill", []string{"-killmodules", "2", "-scheme", "row"}, ""},
		{"plain sweep", []string{"-sweep", "0,0.05,0.1"}, ""},
		{"plain compare", []string{"-compare", "-kills", "0,1,2"}, ""},
		{"reliable single run", []string{"-reliable", "-timeout", "40", "-retries", "5", "-jitter", "4", "-maxtimeout", "200"}, ""},
		{"reliable sweep", []string{"-reliable", "-sweep", "0,0.1"}, ""},
		{"reliable outage sweep", []string{"-reliable", "-sweep", "0,0.1", "-outage", "50"}, ""},
		{"reliable compare", []string{"-reliable", "-compare"}, ""},
		{"adaptive single run", []string{"-adaptive", "-threshold", "3", "-probe", "12", "-maxdetours", "4", "-epoch", "24"}, ""},
		{"adaptive epoch off", []string{"-adaptive", "-epoch", "0"}, ""},
		{"adaptive sweep", []string{"-adaptive", "-sweep", "0,0.05"}, ""},
		{"adaptive compare", []string{"-adaptive", "-compare", "-kills", "0,2"}, ""},
		{"adaptive with reliable", []string{"-adaptive", "-reliable", "-timeout", "40", "-retries", "1"}, ""},
		{"drop policy", []string{"-policy", "drop"}, ""},

		// Range checks.
		{"dim too small", []string{"-n", "0"}, "-n 0"},
		{"dim too large", []string{"-n", "15"}, "-n 15"},
		{"lambda zero", []string{"-lambda", "0"}, "-lambda"},
		{"lambda above one", []string{"-lambda", "1.5"}, "-lambda"},
		{"negative warmup", []string{"-warmup", "-1"}, "-warmup"},
		{"zero cycles", []string{"-cycles", "0"}, "-cycles"},
		{"negative buffers", []string{"-buffers", "-1"}, "-buffers"},
		{"negative ttl", []string{"-ttl", "-5"}, "-ttl"},
		{"linkrate above one", []string{"-linkrate", "1.2"}, "-linkrate"},
		{"negative noderate", []string{"-noderate", "-0.1"}, "-noderate"},
		{"negative transient", []string{"-transient", "-1"}, "-transient"},
		{"zero repair", []string{"-repair", "0"}, "-repair"},
		{"negative killmodules", []string{"-killmodules", "-1"}, "-killmodules"},
		{"unknown policy", []string{"-policy", "teleport"}, "unknown policy"},
		{"unknown scheme", []string{"-scheme", "cube"}, "unknown scheme"},

		// Sweep/compare exclusivity and stray single-run flags.
		{"sweep with compare", []string{"-sweep", "0,0.1", "-compare"}, "mutually exclusive"},
		{"kills without compare", []string{"-kills", "0,1"}, "-kills set without -compare"},
		{"linkrate with sweep", []string{"-sweep", "0,0.1", "-linkrate", "0.05"}, "-linkrate"},
		{"killmodules with sweep", []string{"-sweep", "0,0.1", "-killmodules", "2"}, "-killmodules"},
		{"scheme with compare", []string{"-compare", "-scheme", "row"}, "-scheme"},
		{"transient with compare", []string{"-compare", "-transient", "3"}, "-transient"},

		// Reliability flag audit.
		{"timeout without reliable", []string{"-timeout", "40"}, "-timeout set without -reliable"},
		{"retries without reliable", []string{"-retries", "5"}, "-retries set without -reliable"},
		{"jitter without reliable", []string{"-jitter", "2"}, "-jitter set without -reliable"},
		{"maxtimeout without reliable", []string{"-maxtimeout", "100"}, "-maxtimeout set without -reliable"},
		{"outage without reliable", []string{"-outage", "50"}, "-outage set without -reliable"},
		{"two stray reliable flags", []string{"-timeout", "40", "-retries", "5"}, "-timeout, -retries"},
		{"outage without sweep", []string{"-reliable", "-outage", "50"}, "-outage only applies to a reliability sweep"},
		{"negative reliable timeout", []string{"-reliable", "-timeout", "-1"}, "-timeout -1"},
		{"timeout past horizon", []string{"-reliable", "-warmup", "10", "-cycles", "20", "-timeout", "40"}, "never fires"},
		{"negative jitter", []string{"-reliable", "-jitter", "-2"}, "-jitter -2"},
		{"negative outage", []string{"-reliable", "-sweep", "0,0.1", "-outage", "-1"}, "-outage -1"},

		// Adaptive flag audit.
		{"threshold without adaptive", []string{"-threshold", "3"}, "-threshold set without -adaptive"},
		{"probe without adaptive", []string{"-probe", "10"}, "-probe set without -adaptive"},
		{"maxdetours without adaptive", []string{"-maxdetours", "2"}, "-maxdetours set without -adaptive"},
		{"epoch without adaptive", []string{"-epoch", "20"}, "-epoch set without -adaptive"},
		{"two stray adaptive flags", []string{"-threshold", "3", "-epoch", "20"}, "-threshold, -epoch"},
		{"adaptive with explicit policy", []string{"-adaptive", "-policy", "drop"}, "-policy is ignored under -adaptive"},
		{"adaptive with explicit misroute", []string{"-adaptive", "-policy", "misroute"}, "-policy is ignored under -adaptive"},
		{"adaptive with outage", []string{"-adaptive", "-reliable", "-sweep", "0,0.1", "-outage", "50"}, "-outage and -adaptive"},
		{"negative threshold", []string{"-adaptive", "-threshold", "-1"}, "-threshold -1"},
		{"negative probe", []string{"-adaptive", "-probe", "-1"}, "-probe -1"},
		{"negative maxdetours", []string{"-adaptive", "-maxdetours", "-1"}, "-maxdetours -1"},
		{"epoch below sentinel", []string{"-adaptive", "-epoch", "-2"}, "-epoch -2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("args %v rejected: %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// The auto-filled configs must honor explicit overrides and leave
// dimension-derived defaults alone otherwise.
func TestConfigDefaults(t *testing.T) {
	o, err := parseOptions([]string{"-n", "6", "-reliable", "-adaptive", "-seed", "10"})
	if err != nil {
		t.Fatal(err)
	}
	rc := o.reliableConfig()
	if rc.Timeout != 48 { // DefaultConfig(6): 8n
		t.Errorf("auto timeout = %d, want 48", rc.Timeout)
	}
	if rc.Seed != 515 {
		t.Errorf("reliable seed = %d, want seed+505", rc.Seed)
	}
	ac := o.adaptiveConfig()
	if ac.ProbeInterval != 12 { // DefaultConfig(6): 2n
		t.Errorf("auto probe interval = %d, want 12", ac.ProbeInterval)
	}
	if ac.Epoch != 24 { // DefaultConfig(6): 4n
		t.Errorf("auto epoch = %d, want 24", ac.Epoch)
	}
	if ac.Seed != 616 {
		t.Errorf("adaptive seed = %d, want seed+606", ac.Seed)
	}

	o, err = parseOptions([]string{"-n", "6", "-reliable", "-timeout", "30", "-jitter", "0",
		"-adaptive", "-threshold", "5", "-epoch", "0"})
	if err != nil {
		t.Fatal(err)
	}
	rc = o.reliableConfig()
	if rc.Timeout != 30 {
		t.Errorf("explicit timeout = %d, want 30", rc.Timeout)
	}
	if rc.Jitter != 0 {
		t.Errorf("explicit jitter = %d, want 0", rc.Jitter)
	}
	ac = o.adaptiveConfig()
	if ac.Threshold != 5 {
		t.Errorf("explicit threshold = %d, want 5", ac.Threshold)
	}
	if ac.Epoch != 0 {
		t.Errorf("explicit epoch 0 (off) = %d, want 0", ac.Epoch)
	}
}

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// The sweep printers are the tool's public record: their tables land in
// docs and regression baselines. Each case runs one sweep family at
// n = 4 with short cycles and compares the table or CSV byte for byte
// against testdata/<case>.golden; the cases are small enough to run
// under -short. Regenerate with `go test ./cmd/bffault -run
// TestSweepPrintersByteIdentical -update` only for a deliberate change
// of output.
func TestSweepPrintersByteIdentical(t *testing.T) {
	base := []string{"-n", "4", "-warmup", "50", "-cycles", "200", "-seed", "3"}
	sweep := append([]string{"-sweep", "0,0.05"}, base...)
	compare := append([]string{"-compare", "-kills", "0,1,2"}, base...)
	cases := []struct {
		name string
		args []string
	}{
		{"sweep", sweep},
		{"compare", compare},
		{"reliable sweep", append([]string{"-reliable"}, sweep...)},
		{"reliable compare", append([]string{"-reliable"}, compare...)},
		{"reliable outage sweep", append([]string{"-reliable", "-outage", "20"}, sweep...)},
		{"adaptive sweep", append([]string{"-adaptive"}, sweep...)},
		{"adaptive compare", append([]string{"-adaptive"}, compare...)},
		{"buffered sweep", append([]string{"-buffers", "4"}, sweep...)},
	}
	for _, tc := range cases {
		for _, csv := range []bool{false, true} {
			name, args := tc.name, tc.args
			if csv {
				name, args = name+" csv", append([]string{"-csv"}, args...)
			}
			t.Run(name, func(t *testing.T) {
				o, err := parseOptions(args)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := report(o, &buf); err != nil {
					t.Fatal(err)
				}
				got := buf.Bytes()
				path := filepath.Join("testdata", strings.ReplaceAll(name, " ", "_")+".golden")
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}
