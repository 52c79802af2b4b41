package clustering

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"proger/internal/entity"
)

// WriteClusters writes a clustering as tab-separated text: a
// "#cluster\tmembers" header, then one line per cluster with the member
// IDs comma-separated.
func WriteClusters(w io.Writer, clusters [][]entity.ID) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "#cluster\tmembers"); err != nil {
		return err
	}
	for i, c := range clusters {
		ids := make([]string, len(c))
		for j, id := range c {
			ids[j] = strconv.Itoa(int(id))
		}
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", i, strings.Join(ids, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}
