package affinity_test

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// flagLine matches a flag's first line in a -h listing: "  -name" for a
// bool flag, "  -name type" for the others.
var flagLine = regexp.MustCompile(`^  -([A-Za-z0-9_]+)(?: ([a-z]+))?(?:\t.*)?$`)

// TestCLIFlagErrorsExitOne builds the four commands and reads each one's
// -h listing. Every int, float and bool flag gets a malformed value, and
// every float flag also gets NaN; each command also gets an unknown
// flag, a stray argument and a final flag with no value. Every such call
// must exit 1 with one "<cmd>: " line on stderr and nothing on stdout,
// so a typo is never mistaken for a saturated run (exit 2). The cases
// come from the listing, so a flag added later is covered without
// editing this test.
func TestCLIFlagErrorsExitOne(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("building the commands: %v\n%s", err, out)
	}
	for _, name := range []string{"affinitysim", "calibrate", "paperfigs", "schedsearch"} {
		t.Run(name, func(t *testing.T) {
			bin := dir + "/" + name
			stdout, usage, code := runCmd(t, bin, "-h")
			if code != 0 || stdout != "" || !strings.HasPrefix(usage, "Usage of ") {
				t.Fatalf("-h: exit %d, stdout %q, stderr %.40q; want exit 0 and the usage on stderr", code, stdout, usage)
			}
			var cases [][]string
			needsArg := ""
			for _, line := range strings.Split(usage, "\n") {
				m := flagLine.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				switch flagName, typ := m[1], m[2]; typ {
				case "":
					cases = append(cases, []string{"-" + flagName + "=x"})
				case "int":
					cases = append(cases, []string{"-" + flagName, "x"})
					needsArg = flagName
				case "float":
					// NaN parses as a float but is no rate, cost or
					// weight; it must be refused like a typo.
					cases = append(cases, []string{"-" + flagName, "x"}, []string{"-" + flagName, "NaN"})
					needsArg = flagName
				case "string":
					needsArg = flagName
				default:
					t.Fatalf("flag -%s has type %q, which this test cannot corrupt", flagName, typ)
				}
			}
			if len(cases) == 0 || needsArg == "" {
				t.Fatalf("no flags read from the -h listing:\n%s", usage)
			}
			cases = append(cases, []string{"-nosuchflag"}, []string{"stray"}, []string{"-" + needsArg})
			for _, args := range cases {
				stdout, stderr, code := runCmd(t, bin, args...)
				if code != 1 {
					t.Errorf("%v: exit %d, want 1", args, code)
				}
				if stdout != "" {
					t.Errorf("%v: stdout %q, want empty", args, stdout)
				}
				if !strings.HasPrefix(stderr, name+": ") || strings.Count(stderr, "\n") != 1 {
					t.Errorf("%v: stderr %q, want one %q line", args, stderr, name+": ")
				}
			}
		})
	}
}

// runCmd runs bin and returns its stdout, stderr and exit code.
func runCmd(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exitErr, ok := err.(*exec.ExitError); ok {
		return stdout.String(), stderr.String(), exitErr.ExitCode()
	}
	if err != nil {
		t.Fatalf("running %s %v: %v", bin, args, err)
	}
	return stdout.String(), stderr.String(), 0
}
