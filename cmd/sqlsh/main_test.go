package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runShellEnv makes the re-executed test binary run the shell's main
// instead of the tests, so a test can drive a real shell process and
// SIGKILL it.
const runShellEnv = "SQLSH_TEST_RUN_SHELL"

func TestMain(m *testing.M) {
	if os.Getenv(runShellEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAcknowledgedInsertsSurviveSIGKILL runs the shell on a directory,
// feeds it INSERTs with ascending ids and SIGKILLs it after a number of
// "(1 row(s) affected)" acknowledgements. Reopened the way the shell
// opens it, the directory must hold every acknowledged id, at most one
// id past the last acknowledgement (a commit whose ack was still being
// written), and no gaps. Four kill/reopen rounds run on one directory,
// with a .checkpoint about every 100 inserts, so the later rounds
// recover from a checkpoint after the log has pruned whole segments.
func TestAcknowledgedInsertsSurviveSIGKILL(t *testing.T) {
	dir := t.TempDir()
	next := int64(10) // the demo table's preloaded ids are 0..9
	for round, killAfter := range []int64{150, 200, 250, 300} {
		acked := insertUntilKilled(t, dir, next, killAfter)
		lastAck := next + acked - 1
		count, maxID := demoCountAndMax(t, dir)
		if maxID < lastAck {
			t.Fatalf("round %d: acknowledged id %d lost; max id after recovery is %d", round, lastAck, maxID)
		}
		if maxID > lastAck+1 {
			t.Fatalf("round %d: max id %d is %d past the last acknowledged id %d", round, maxID, maxID-lastAck, lastAck)
		}
		if count != maxID+1 {
			t.Fatalf("round %d: %d rows for ids 0..%d", round, count, maxID)
		}
		t.Logf("round %d: %d acks, last acked id %d, recovered max id %d", round, acked, lastAck, maxID)
		next = maxID + 1
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if filepath.Base(s) == "wal-00000000.seg" {
			t.Fatalf("checkpoints never pruned a segment (%d segments); the rounds did not cover recovery after pruning", len(segs))
		}
	}
}

// insertUntilKilled starts the shell on dir, writes INSERT lines for
// ids first, first+1, ... (and a .checkpoint every 100), kills the shell
// with SIGKILL once it has acknowledged killAfter of them, and returns
// how many it acknowledged in all.
func insertUntilKilled(t *testing.T, dir string, first, killAfter int64) int64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-dir", dir)
	cmd.Env = append(os.Environ(), runShellEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for id := first; ; id++ {
			line := fmt.Sprintf("INSERT INTO demo VALUES (%d, FloatArray.Vector_5(%d, 0, 0, 0, 1))\n", id, id)
			if (id-first)%100 == 99 {
				line += ".checkpoint\n"
			}
			if _, err := io.WriteString(stdin, line); err != nil {
				return // the shell is gone
			}
		}
	}()
	var acked int64
	var bad []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.Contains(line, "(1 row(s) affected)"):
			acked++
			if acked == killAfter {
				if err := cmd.Process.Kill(); err != nil { // SIGKILL
					t.Fatal(err)
				}
			}
		case strings.Contains(line, "error"):
			bad = append(bad, line)
		}
	}
	err = cmd.Wait()
	<-fed
	if len(bad) > 0 {
		t.Fatalf("shell reported errors: %q", bad)
	}
	if acked < killAfter {
		t.Fatalf("shell exited after %d acks (%v), before the kill; stderr: %s", acked, err, stderr.String())
	}
	return acked
}

// demoCountAndMax opens dir as the shell does and returns the demo
// table's row count and largest id. It also checks that dual still has
// its one row.
func demoCountAndMax(t *testing.T, dir string) (count, maxID int64) {
	t.Helper()
	db, closeDB, err := openDatabase(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := closeDB(); err != nil {
			t.Fatal(err)
		}
	}()
	res, err := db.Query("SELECT COUNT(*), MAX(id) FROM demo")
	if err != nil {
		t.Fatal(err)
	}
	if count, err = res.Rows[0][0].AsInt(); err != nil {
		t.Fatal(err)
	}
	if maxID, err = res.Rows[0][1].AsInt(); err != nil {
		t.Fatal(err)
	}
	if n, err := db.QueryScalarFloat("SELECT COUNT(*) FROM dual"); err != nil || n != 1 {
		t.Fatalf("dual has %v rows (%v), want 1", n, err)
	}
	return count, maxID
}
