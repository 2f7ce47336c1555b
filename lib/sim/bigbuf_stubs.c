/* Sim.Bigbuf's C side: the large-slab allocator, the byte movers and
   the used-length scan.

   The byte movers are one libc call each. Every mover, and the scan,
   is declared [@@noalloc] on the OCaml side and takes raw byte
   offsets that bigbuf.ml has already bounds-checked, so none of them
   allocates, raises or registers roots. Heap [bytes] cannot move during
   a noalloc call (no GC can run), so taking Bytes_val across the copy
   is safe. */

/* For the bigarray's own compare, hash and serialisation functions,
   which the runtime exports to its libraries (the unix library's
   map_file builds its bigarrays the same way). */
#define CAML_INTERNALS

#include <stdint.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>

/* Large slabs: a fresh anonymous mapping with a 2 MiB-aligned start,
   so that each whole 2 MiB region of the slab can be backed by one
   transparent huge page. A partial last region stays on base pages:
   rounding the mapping up to 2 MiB would let a touch of the slab's
   last bytes commit a whole huge page. The kernel zero-fills each
   page on first touch, so the slab needs no memset and costs nothing
   until used.

   The slab is a custom block laid out as a one-dimensional char
   bigarray (Caml_ba_data_val, dim and the bigstring primitives work
   on it unchanged) with the bigarray's compare, hash and
   serialisation, and a finaliser that unmaps it. It is charged to
   the GC with its byte size, as a heap-allocated bigarray is, so
   major-GC pacing does not depend on which allocator made a slab. */

#define HUGE_PAGE ((uintnat)1 << 21)

static void dilos_bigbuf_unmap(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  munmap(b->data, b->dim[0]);
}

static struct custom_operations dilos_bigbuf_mapped_ops = {
  "_bigarray",
  dilos_bigbuf_unmap,
  caml_ba_compare,
  caml_ba_hash,
  caml_ba_serialize,
  caml_ba_deserialize,
  custom_compare_ext_default,
  custom_fixed_length_default
};

value dilos_bigbuf_create_mapped(value vlen)
{
  uintnat len = Long_val(vlen);
  uintnat page = sysconf(_SC_PAGESIZE);
  uintnat map_len = (len + page - 1) & ~(page - 1);
  /* Over-reserve one huge page so that an aligned start exists, then
     unmap the unaligned head and the tail beyond [map_len]. */
  char *p = mmap(NULL, map_len + HUGE_PAGE, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) caml_raise_out_of_memory();
  char *base = (char *)(((uintnat)p + HUGE_PAGE - 1) & ~(HUGE_PAGE - 1));
  uintnat head = base - p;
  if (head > 0) munmap(p, head);
  munmap(base + map_len, HUGE_PAGE - head);
#ifdef MADV_HUGEPAGE
  /* Advice only: where transparent huge pages are off, the slab is
     backed by base pages and behaves the same. */
  (void)madvise(base, map_len, MADV_HUGEPAGE);
#endif
  value res = caml_alloc_custom_mem(&dilos_bigbuf_mapped_ops,
                                    SIZEOF_BA_ARRAY + sizeof(intnat), len);
  struct caml_ba_array *b = Caml_ba_array_val(res);
  b->data = base;
  b->num_dims = 1;
  b->flags = CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL;
  b->proxy = NULL;
  b->dim[0] = len;
  return res;
}

#define BB(v, off) ((unsigned char *)Caml_ba_data_val(v) + Long_val(off))

value dilos_bigbuf_memmove(value src, value src_off, value dst, value dst_off,
                           value len)
{
  memmove(BB(dst, dst_off), BB(src, src_off), Long_val(len));
  return Val_unit;
}

value dilos_bigbuf_memset(value t, value off, value len, value c)
{
  memset(BB(t, off), Int_val(c), Long_val(len));
  return Val_unit;
}

value dilos_bigbuf_to_bytes(value src, value src_off, value dst,
                            value dst_off, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off), BB(src, src_off), Long_val(len));
  return Val_unit;
}

value dilos_bigbuf_of_bytes(value src, value src_off, value dst,
                            value dst_off, value len)
{
  memcpy(BB(dst, dst_off), Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

value dilos_bigbuf_memcmp(value a, value a_off, value b, value b_off,
                          value len)
{
  return Val_bool(memcmp(BB(a, a_off), BB(b, b_off), Long_val(len)) == 0);
}

/* The used length of a range: the offset of its last nonzero byte,
   plus one (0 when every byte is zero). Scans back 64 bytes at a time,
   testing the OR of their eight words, then a word at a time inside
   the last 64 bytes that hold a nonzero one, then bytewise. memcpy is
   the portable unaligned load, one instruction where the target
   allows.

   A sparse page is read whole, and a written-back frame is usually
   cold, so once a 64-byte block reads zero the scan prefetches the
   block 512 bytes further back (a prefetch never faults, also before
   the range). A dense range stops at its first block and prefetches
   nothing. */
static inline uint64_t load64(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, sizeof w);
  return w;
}

value dilos_bigbuf_used(value t, value off, value len)
{
  const unsigned char *p = BB(t, off);
  uintnat n = Long_val(len);
  while (n >= 64) {
    const unsigned char *q = p + n - 64;
    if ((load64(q) | load64(q + 8) | load64(q + 16) | load64(q + 24)
         | load64(q + 32) | load64(q + 40) | load64(q + 48) | load64(q + 56))
        != 0)
      break;
#if defined(__GNUC__)
    __builtin_prefetch((const void *)((uintptr_t)q - 512));
#endif
    n -= 64;
  }
  while (n >= 8 && load64(p + n - 8) == 0) n -= 8;
  while (n > 0 && p[n - 1] == 0) n--;
  return Val_long(n);
}
