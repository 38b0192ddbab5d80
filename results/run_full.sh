#!/bin/bash
# Full-size reproduction run: one experiment at a time, bounded.
cd /root/repo
out=results/full_run.txt
: > $out
for id in table1 table2 fig5 fig9 fig10 fig11 fig12 ablation-buffer ablation-coalesce ablation-transfer fig8a fig8b fig1 ablation-ma fig13 fig8c; do
  echo "=== START $id $(date +%H:%M:%S) ===" >> $out
  timeout 2400 ./results/erisbench "$id" >> $out 2>&1
  echo "=== END $id rc=$? $(date +%H:%M:%S) ===" >> $out
done
echo ALL_DONE >> $out
