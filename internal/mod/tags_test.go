package mod

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/trajectory"
)

func tagTraj(t *testing.T, oid int64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: float64(oid), Y: 0, T: 0}, {X: float64(oid) + 1, Y: 1, T: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSetTagsCanonicalAndVersion(t *testing.T) {
	st, err := NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(tagTraj(t, 1)); err != nil {
		t.Fatal(err)
	}
	v0 := st.Version()
	if err := st.SetTags(1, []string{"EV", "Available", "ev"}); err != nil {
		t.Fatal(err)
	}
	if st.Version() != v0+1 {
		t.Fatalf("version %d, want %d", st.Version(), v0+1)
	}
	if got := st.Tags(1); !slices.Equal(got, []string{"available", "ev"}) {
		t.Fatalf("Tags = %v", got)
	}
	if err := st.SetTags(99, []string{"x"}); err == nil {
		t.Fatal("SetTags on unknown OID accepted")
	}
	if err := st.SetTags(1, []string{"bad tag"}); err == nil {
		t.Fatal("bad tag accepted")
	}
	if err := st.SetTags(1, nil); err != nil {
		t.Fatal(err)
	}
	if st.Tags(1) != nil {
		t.Fatal("tags not cleared")
	}
	if err := st.SetTags(1, []string{"ev"}); err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(st, Update{OID: 1, Retire: true}); err != nil {
		t.Fatal(err)
	}
	if st.Tags(1) != nil {
		t.Fatal("tags survive retire")
	}
}

func TestApplyUpdateTagFlip(t *testing.T) {
	st, err := NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(tagTraj(t, 7)); err != nil {
		t.Fatal(err)
	}
	// Pure flip on an existing object.
	tags := []string{"Available"}
	a, err := applyOne(st, Update{OID: 7, Tags: &tags})
	if err != nil {
		t.Fatal(err)
	}
	if !a.TagsChanged || !slices.Equal(a.Tags, []string{"available"}) || a.PrevTags != nil {
		t.Fatalf("Applied = %+v", a)
	}
	if !math.IsInf(a.ChangedFrom, 1) || a.Traj == nil {
		t.Fatalf("pure flip ChangedFrom = %g, Traj = %v", a.ChangedFrom, a.Traj)
	}
	// Identical flip: no TagsChanged.
	a, err = applyOne(st, Update{OID: 7, Tags: &tags})
	if err != nil {
		t.Fatal(err)
	}
	if a.TagsChanged {
		t.Fatal("no-op flip reported TagsChanged")
	}
	// Pure flip on unknown OID fails.
	if _, err := applyOne(st, Update{OID: 99, Tags: &tags}); err == nil {
		t.Fatal("flip on unknown OID accepted")
	}
	// Vertex-less, tag-less update still fails like before.
	if _, err := applyOne(st, Update{OID: 7}); err == nil {
		t.Fatal("empty update accepted")
	}
	// Combined geometry + tags: one Applied with both effects.
	newTags := []string{"available", "wheelchair"}
	a, err = applyOne(st, Update{
		OID:   7,
		Verts: []trajectory.Vertex{{X: 9, Y: 9, T: 20}},
		Tags:  &newTags,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.TagsChanged || !slices.Equal(a.Tags, []string{"available", "wheelchair"}) ||
		!slices.Equal(a.PrevTags, []string{"available"}) {
		t.Fatalf("combined Applied = %+v", a)
	}
	if math.IsInf(a.ChangedFrom, 1) {
		t.Fatal("combined update lost geometry change")
	}
	// Insert-with-tags.
	ins := []string{"pool"}
	a, err = applyOne(st, Update{
		OID:   8,
		Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 5}},
		Tags:  &ins,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Inserted || !a.TagsChanged || !slices.Equal(st.Tags(8), []string{"pool"}) {
		t.Fatalf("insert Applied = %+v, tags %v", a, st.Tags(8))
	}
	// Clearing via empty non-nil Tags.
	empty := []string{}
	a, err = applyOne(st, Update{OID: 8, Tags: &empty})
	if err != nil {
		t.Fatal(err)
	}
	if !a.TagsChanged || a.Tags != nil || !slices.Equal(a.PrevTags, []string{"pool"}) {
		t.Fatalf("clear Applied = %+v", a)
	}
}

func TestTagsPersistence(t *testing.T) {
	st, err := NewStore(PDFSpec{Kind: PDFBoundedGaussian, R: 1, Sigma: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for oid := int64(1); oid <= 3; oid++ {
		if err := st.Insert(tagTraj(t, oid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetTags(1, []string{"ev", "available"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTags(3, []string{"night"}); err != nil {
		t.Fatal(err)
	}
	var bin, js bytes.Buffer
	if err := st.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveJSON(&js); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*Store, error){
		"binary": func() (*Store, error) { return LoadBinary(bytes.NewReader(bin.Bytes())) },
		"json":   func() (*Store, error) { return LoadJSON(bytes.NewReader(js.Bytes())) },
	} {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Tags(1), []string{"available", "ev"}) ||
			got.Tags(2) != nil || !slices.Equal(got.Tags(3), []string{"night"}) {
			t.Fatalf("%s: tags %v %v %v", name, got.Tags(1), got.Tags(2), got.Tags(3))
		}
	}
}
