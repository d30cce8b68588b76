package faultsim

import "fmt"

// IdentityVersion is the schema version of the campaign identity string
// produced by Campaign.Identity.  The identity is a durable key: it names
// checkpoint snapshots on disk and addresses entries of the prediction
// service's result store, so its format is API.  Bump this constant (and
// the "cid:vN/" prefix it produces) whenever the set of outcome-affecting
// fields or their encoding changes, or an app changes what a campaign of
// an unchanged identity measures (the identity names no app revision); a
// bump deliberately orphans existing
// checkpoints and store entries rather than silently resuming them into a
// deployment with different semantics.
//
// Version history:
//
//	v1  unversioned "APP/CLASS/p8/..." strings (pre-service checkpoints).
//	v2  adds the "cid:v2/" prefix and defines the identity over the
//	    Normalized campaign, so callers and RunAgainstCtx agree on keys.
//	v3  the format of v2.  MG stopped repeating its coarse levels on every
//	    rank: at p >= 32 its ranks do the serial run's ops instead of up to
//	    6.6x as many, so its campaigns there have other injection sites
//	    and other outcomes under an unchanged v2 string.
const IdentityVersion = 3

// Normalized returns a copy of the campaign with the outcome-affecting
// defaults applied: Class (the app's default), Errors (minimum 1) and
// ContaminationTol (DefaultContaminationTol).  Identity is defined over
// the normalized form — normalizing first is what makes a key computed by
// a caller (the session cache, the result store) equal to the key
// RunAgainstCtx embeds in checkpoints after it applies the same defaults.
// Fields that do not affect trial outcomes (Workers, Pool, Timeout,
// Budget, retry, checkpoint and ProgressEvery knobs) are left untouched
// and never enter the identity.
func (c Campaign) Normalized() Campaign {
	if c.Class == "" && c.App != nil {
		c.Class = c.App.DefaultClass()
	}
	if c.Errors < 1 {
		c.Errors = 1
	}
	if c.ContaminationTol == 0 {
		c.ContaminationTol = DefaultContaminationTol
	}
	return c
}

// Identity returns the campaign's deterministic identity string: a
// versioned key over every field that affects trial outcomes
// (app/class/procs/trials/errors/region/seed/pattern and the extension
// knobs).  Two campaigns with equal identities produce bit-identical
// Summaries; checkpoints and the prediction service's result store are
// both keyed by it, so a snapshot or cached summary can never be resumed
// into a different deployment.
//
// The format (pinned by TestIdentityFormat) is
//
//	cid:v3/APP/CLASS/p<procs>/t<trials>/e<errors>/r<region>/s<seed>/pat<pattern>
//
// followed by optional "/spread", "/tol<g>", "/k<mask>", "/b<bit>" and
// "/w<lo>-<hi>" segments for the non-default extension knobs.  Call on
// the Normalized campaign; RunAgainstCtx normalizes before computing it.
func (c Campaign) Identity() string {
	app := "?"
	if c.App != nil {
		app = c.App.Name()
	}
	id := fmt.Sprintf("cid:v%d/%s/%s/p%d/t%d/e%d/r%d/s%d/pat%d",
		IdentityVersion, app, c.Class, c.Procs, c.Trials, c.Errors,
		int(c.Region), c.Seed, int(c.Pattern))
	if c.SpreadErrors {
		id += "/spread"
	}
	if c.ContaminationTol != 0 {
		id += fmt.Sprintf("/tol%g", c.ContaminationTol)
	}
	if c.KindMask != 0 {
		id += fmt.Sprintf("/k%d", c.KindMask)
	}
	if c.FixedBit != nil {
		id += fmt.Sprintf("/b%d", *c.FixedBit)
	}
	if c.Window != nil {
		id += fmt.Sprintf("/w%g-%g", c.Window[0], c.Window[1])
	}
	return id
}
