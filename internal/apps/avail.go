package apps

import (
	"fmt"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// AvailCampaign assembles the traffic-driven availability campaign for
// a built-in server guest: libc, the server (plus its worker binary for
// the multi-process httpd), the generated client that pumps phased
// request traffic through the kernel's loopback sockets, and the web
// content. The profile is restricted to the two server-side calls every
// request exercises exactly once (the connection accept, and the WAL
// append or the page open), so a <calls after=N> window lands
// mid-steady-state. The client never calls either, which keeps the
// fault on the server.
func AvailCampaign(server string) (core.CampaignConfig, profile.Set, error) {
	var fns, extra []string
	switch server {
	case "minidb", "minidb-nr":
		fns = []string{"accept", "write"}
	case "httpd":
		fns = []string{"accept", "open"}
	case "httpd-mp":
		fns = []string{"accept", "open"}
		extra = []string{"httpdw"}
	default:
		return core.CampaignConfig{}, nil, fmt.Errorf(
			"apps: %q is not a built-in server guest (want minidb, minidb-nr, httpd or httpd-mp)", server)
	}
	lc, err := libc.Compile()
	if err != nil {
		return core.CampaignConfig{}, nil, err
	}
	client := AvailClientName(server)
	progs := []*obj.File{lc}
	for _, n := range append([]string{server, client}, extra...) {
		f, err := Compile(n)
		if err != nil {
			return core.CampaignConfig{}, nil, err
		}
		progs = append(progs, f)
	}
	p := &profile.Profile{Library: libc.Name}
	for _, fn := range fns {
		p.Functions = append(p.Functions, profile.Function{
			Name: fn, ErrorCodes: []profile.ErrorCode{{Retval: -1}},
		})
	}
	cfg := core.CampaignConfig{
		Programs:   progs,
		Executable: client,
		Files:      WWWFiles(),
		Avail:      &core.AvailSpec{Client: client},
	}
	return cfg, profile.Set{libc.Name: p}, nil
}
