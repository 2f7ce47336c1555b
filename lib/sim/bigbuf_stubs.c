/* Byte movers for Sim.Bigbuf: one libc call each.

   Every stub is declared [@@noalloc] on the OCaml side and takes raw
   byte offsets that bigbuf.ml has already bounds-checked, so the
   stubs neither allocate, raise nor register roots. Heap [bytes]
   cannot move during a noalloc call (no GC can run), so taking
   Bytes_val across the copy is safe. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

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
