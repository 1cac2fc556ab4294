package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"bestofboth/pkg/bestofboth/api"
)

// errReceiptFailed marks a diverged verification receipt; cli turns it
// into a distinct exit code so scripts can tell "the change verified as
// wrong" from "the request failed".
var errReceiptFailed = fmt.Errorf("verification receipt failed")

const ctlDoc = `The exact JSON response body of the daemon's v1 API is printed to stdout.

Query commands:
  world | state | digests | dns | load | catchments | changesets
  get <changeset-id>

Mutation commands (dry-run by default; -x executes and verifies):
  drain <site>            drain a site for -drain-for virtual seconds
  fail <site>             hard-fail a site
  recover <site>          recover a failed site
  switch <technique>      switch the deployed technique
  scale <fraction>        multiply every target's demand rate
  prepend <site> <n>      re-originate the site /24 with n prepends (0 clears)
  apply <file|->          post mutations from a JSON file ({"mutations":[...]})

Exit status: 0 on success (and pass receipts), 3 when an executed
changeset's verification receipt fails, 1 on errors.`

// runCtl implements the ctl command, a client for serve's v1 API.
func runCtl(o *options) error {
	if len(o.args) == 0 {
		return fmt.Errorf("ctl: missing command (see cdnsim ctl -h)")
	}
	base := strings.TrimSuffix(o.addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cmd, operands := o.args[0], o.args[1:]

	switch cmd {
	case "world", "state", "digests", "dns", "load", "catchments", "changesets":
		if len(operands) != 0 {
			return fmt.Errorf("ctl %s: takes no arguments", cmd)
		}
		return ctlGet(base + "/v1/" + cmd)
	case "get":
		if len(operands) != 1 {
			return fmt.Errorf("ctl get: want <changeset-id>")
		}
		return ctlGet(base + "/v1/changesets/" + operands[0])
	}

	muts, err := ctlMutations(cmd, operands, o.drainFor)
	if err != nil {
		return err
	}
	return ctlPost(base, muts, o.execute, o.sabotage)
}

// ctlMutations builds the one-mutation ChangeSet each mutation command
// stands for, or loads a full batch for apply.
func ctlMutations(cmd string, operands []string, drainFor float64) ([]api.Mutation, error) {
	one := func(m api.Mutation) ([]api.Mutation, error) { return []api.Mutation{m}, nil }
	switch cmd {
	case "drain":
		if len(operands) != 1 {
			return nil, fmt.Errorf("ctl drain: want <site>")
		}
		return one(api.Mutation{Kind: "drain", Site: operands[0], DrainFor: drainFor})
	case "fail":
		if len(operands) != 1 {
			return nil, fmt.Errorf("ctl fail: want <site>")
		}
		return one(api.Mutation{Kind: "fail", Site: operands[0]})
	case "recover":
		if len(operands) != 1 {
			return nil, fmt.Errorf("ctl recover: want <site>")
		}
		return one(api.Mutation{Kind: "recover", Site: operands[0]})
	case "switch":
		if len(operands) != 1 {
			return nil, fmt.Errorf("ctl switch: want <technique>")
		}
		return one(api.Mutation{Kind: "switch-technique", Technique: operands[0]})
	case "scale":
		if len(operands) != 1 {
			return nil, fmt.Errorf("ctl scale: want <fraction>")
		}
		f, err := strconv.ParseFloat(operands[0], 64)
		if err != nil {
			return nil, fmt.Errorf("ctl scale: bad fraction %q", operands[0])
		}
		return one(api.Mutation{Kind: "demand-scale", Fraction: f})
	case "prepend":
		if len(operands) != 2 {
			return nil, fmt.Errorf("ctl prepend: want <site> <prepends>")
		}
		n, err := strconv.Atoi(operands[1])
		if err != nil {
			return nil, fmt.Errorf("ctl prepend: bad count %q", operands[1])
		}
		return one(api.Mutation{Kind: "announce-policy", Site: operands[0], Count: n})
	case "apply":
		if len(operands) != 1 {
			return nil, fmt.Errorf("ctl apply: want <file|->")
		}
		return ctlLoadMutations(operands[0])
	default:
		return nil, fmt.Errorf("ctl: unknown command %q (run `cdnsim ctl -h`)", cmd)
	}
}

// ctlLoadMutations reads a mutation batch from a JSON file ("-" = stdin),
// accepting either {"mutations": [...]} or a bare mutation array.
func ctlLoadMutations(path string) ([]api.Mutation, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var wrapped struct {
		Mutations []api.Mutation `json:"mutations"`
	}
	if err := json.Unmarshal(data, &wrapped); err == nil && len(wrapped.Mutations) > 0 {
		return wrapped.Mutations, nil
	}
	var bare []api.Mutation
	if err := json.Unmarshal(data, &bare); err != nil {
		return nil, fmt.Errorf("ctl apply: %s is neither {\"mutations\":[...]} nor a mutation array: %v", path, err)
	}
	return bare, nil
}

func ctlGet(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ctl: %s: %s", url, resp.Status)
	}
	return nil
}

func ctlPost(base string, muts []api.Mutation, execute, sabotage bool) error {
	reqBody, err := json.Marshal(struct {
		Mutations []api.Mutation `json:"mutations"`
	}{muts})
	if err != nil {
		return err
	}
	url := base + "/v1/changesets"
	var params []string
	if execute {
		params = append(params, "execute=true")
	}
	if sabotage {
		params = append(params, "sabotage=true")
	}
	if len(params) > 0 {
		url += "?" + strings.Join(params, "&")
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ctl: POST %s: %s", url, resp.Status)
	}
	var cs api.ChangeSet
	if err := json.Unmarshal(body, &cs); err != nil {
		return fmt.Errorf("ctl: decoding changeset response: %v", err)
	}
	switch {
	case cs.Receipt == nil:
		fmt.Fprintf(os.Stderr, "ctl: %s dry-run recorded (re-run with -x to execute)\n", cs.ID)
	case cs.Receipt.Pass:
		fmt.Fprintf(os.Stderr, "ctl: %s executed, receipt PASS (0 diverging fields)\n", cs.ID)
	default:
		fmt.Fprintf(os.Stderr, "ctl: %s executed, receipt FAIL (%d diverging fields)\n", cs.ID, len(cs.Receipt.Diffs))
		return errReceiptFailed
	}
	return nil
}
