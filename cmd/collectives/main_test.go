package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/service"
)

// writePlan drops a fault-plan file into a test temp dir and returns its
// path.
func writePlan(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseArgs(t *testing.T) {
	validPlan := `{"seed": 1, "stragglers": [{"node": 0, "factor": 2}]}`
	invalidPlan := `{"drops": [{"class": "all", "probability": 0.5}]}` // drops without retry
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error ("" = success)
		check   func(t *testing.T, o *options)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, o *options) {
				if o.op != collectives.AllReduce || o.spec.Topology != "4x4x4" || o.spec.System.Algorithm != config.Baseline {
					t.Fatalf("defaults = %+v", o)
				}
				if len(o.sizes) != 1 || o.sizes[0] != 4<<20 {
					t.Fatalf("default sizes = %v", o.sizes)
				}
				if o.spec.Audit || o.oracle || o.spec.Faults != nil {
					t.Fatalf("audit/oracle/faults on by default: %+v", o)
				}
			},
		},
		{
			name: "size list with suffixes and whitespace",
			args: []string{"-size", "1KB, 2MB ,3GB"},
			check: func(t *testing.T, o *options) {
				want := []int64{1 << 10, 2 << 20, 3 << 30}
				if len(o.sizes) != 3 {
					t.Fatalf("sizes = %v", o.sizes)
				}
				for i, w := range want {
					if o.sizes[i] != w {
						t.Fatalf("sizes[%d] = %d, want %d", i, o.sizes[i], w)
					}
				}
				if o.sizeTokens[1] != "2MB" {
					t.Fatalf("tokens = %v, want trimmed", o.sizeTokens)
				}
			},
		},
		{name: "size zero entry", args: []string{"-size", "4MB,0,8MB"}, wantErr: `entry 2 ("0")`},
		{name: "size negative entry", args: []string{"-size", "-7MB"}, wantErr: `"-7MB"`},
		{name: "size empty entry", args: []string{"-size", "4MB,,8MB"}, wantErr: "entry 2 is empty"},
		{name: "size overflow entry", args: []string{"-size", "99999999999GB"}, wantErr: "overflows int64"},
		{name: "size garbage entry", args: []string{"-size", "4MB,banana"}, wantErr: `entry 2 ("banana")`},
		{name: "bad op", args: []string{"-op", "gather"}, wantErr: "GATHER"},
		{name: "bad algorithm", args: []string{"-algorithm", "quantum"}, wantErr: "quantum"},
		{name: "bad scheduling policy", args: []string{"-scheduling-policy", "RANDOM"}, wantErr: "RANDOM"},
		{name: "zero splits", args: []string{"-preferred-set-splits", "0"}, wantErr: "-preferred-set-splits"},
		{name: "zero workers", args: []string{"-parallel", "0"}, wantErr: "-parallel"},
		{name: "unknown flag", args: []string{"-frobnicate"}, wantErr: "frobnicate"},
		{
			name: "audit and oracle flags",
			args: []string{"-audit", "-oracle", "-preferred-set-splits", "1"},
			check: func(t *testing.T, o *options) {
				if !o.spec.Audit || !o.oracle {
					t.Fatalf("audit=%v oracle=%v, want both true", o.spec.Audit, o.oracle)
				}
				if o.spec.System.PreferredSetSplits != 1 {
					t.Fatalf("splits = %d", o.spec.System.PreferredSetSplits)
				}
			},
		},
		{name: "faults file missing", args: []string{"-faults", "/nonexistent/plan.json"}, wantErr: "plan.json"},
		{
			name: "default backend is packet",
			args: nil,
			check: func(t *testing.T, o *options) {
				if o.spec.System.Backend != config.PacketBackend {
					t.Fatalf("default backend = %v, want packet", o.spec.System.Backend)
				}
			},
		},
		{
			name: "fast backend",
			args: []string{"-backend", "fast"},
			check: func(t *testing.T, o *options) {
				if o.spec.System.Backend != config.FastBackend {
					t.Fatalf("backend = %v, want fast", o.spec.System.Backend)
				}
			},
		},
		{
			name: "explicit packet backend",
			args: []string{"-backend", "packet"},
			check: func(t *testing.T, o *options) {
				if o.spec.System.Backend != config.PacketBackend {
					t.Fatalf("backend = %v, want packet", o.spec.System.Backend)
				}
			},
		},
		{name: "bad backend names the token", args: []string{"-backend", "warp"}, wantErr: `"warp"`},
		{name: "empty backend", args: []string{"-backend", ""}, wantErr: `""`},
		{
			name: "fast backend with audit is allowed",
			args: []string{"-backend", "fast", "-audit"},
			check: func(t *testing.T, o *options) {
				if o.spec.System.Backend != config.FastBackend || !o.spec.Audit {
					t.Fatalf("backend=%v audit=%v, want fast+audit", o.spec.System.Backend, o.spec.Audit)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseArgs(%v) err = %v, want substring %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%v): %v", tc.args, err)
			}
			if tc.check != nil {
				tc.check(t, o)
			}
		})
	}

	t.Run("valid faults plan", func(t *testing.T) {
		o, err := parseArgs([]string{"-faults", writePlan(t, validPlan)})
		if err != nil {
			t.Fatal(err)
		}
		if o.spec.Faults == nil || len(o.spec.Faults.Stragglers) != 1 || o.spec.Faults.Seed != 1 {
			t.Fatalf("plan = %+v", o.spec.Faults)
		}
	})
	t.Run("invalid faults plan", func(t *testing.T) {
		if _, err := parseArgs([]string{"-faults", writePlan(t, invalidPlan)}); err == nil ||
			!strings.Contains(err.Error(), "retry") {
			t.Fatalf("err = %v, want drops-require-retry rejection", err)
		}
	})
	t.Run("faults with fast backend rejected", func(t *testing.T) {
		_, err := parseArgs([]string{"-faults", writePlan(t, validPlan), "-backend", "fast"})
		if err == nil || !strings.Contains(err.Error(), "packet backend") {
			t.Fatalf("err = %v, want faults-require-packet rejection", err)
		}
	})
	t.Run("faults with audit and oracle", func(t *testing.T) {
		o, err := parseArgs([]string{"-faults", writePlan(t, validPlan), "-audit", "-oracle"})
		if err != nil {
			t.Fatal(err)
		}
		if o.spec.Faults == nil || !o.spec.Audit || !o.oracle {
			t.Fatalf("combined flags = %+v", o)
		}
	})
}

func TestDocExamplesParse(t *testing.T) {
	clitest.DocExamples(t, "collectives", func(args []string) error {
		_, err := parseArgs(args)
		return err
	})
}

func TestFlagSurface(t *testing.T) {
	fs, _, _ := newFlags()
	clitest.FlagSurface(t, fs)
}

// TestExclusionMatrix drives every matrix cell the command can express
// (it issues no point-to-point sends) through parseArgs.
func TestExclusionMatrix(t *testing.T) {
	plan := writePlan(t, clitest.PlanJSON)
	for _, c := range clitest.Cells() {
		if c.SendRecv {
			continue
		}
		_, err := parseArgs(c.Args(plan))
		clitest.Check(t, c, err, c.Want(t, cli.FlagNames))
	}
}

// TestCanonicalSpecMatchesDaemon: the command line daemon_smoke.sh checks
// the daemon against resolves to the same canonical RunSpec as the
// script's submission, so both surfaces configure the same run.
func TestCanonicalSpecMatchesDaemon(t *testing.T) {
	o, err := parseArgs([]string{"-op", "allreduce", "-topology", "4x4x4", "-size", "4MB", "-backend", "fast"})
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(filepath.Join("..", "..", "scripts", "daemon_smoke.sh"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^SUBMISSION='(.*)'$`).FindSubmatch(script)
	if m == nil {
		t.Fatal("daemon_smoke.sh sets no SUBMISSION")
	}
	var sub service.Submission
	if err := json.Unmarshal(m[1], &sub); err != nil {
		t.Fatal(err)
	}
	spec, err := sub.RunSpec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CLI spec differs from the daemon's:\n cli: %s\n daemon: %s", got, want)
	}
}
